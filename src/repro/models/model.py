"""The simulated transformer model: structure init, weights, forwarding.

``Model.forward`` launches the model's kernels on the simulated stream —
eagerly, or recorded into an ongoing stream capture — with the exact
allocation behaviour the Medusa analysis depends on: weight buffers are
allocated once in deterministic layer order (structure initialization),
activations are transient pool allocations freed per layer (creating the
address-reuse aliasing of Figure 6), and cuBLAS-style kernels acquire their
permanent magic workspace on first launch (warm-up).

The layers are structurally identical (the property §5's first-layer
triggering relies on), so a layer's body is data: a :class:`LayerProgram`
of temporary allocations and launches whose operands name their source
(the carried buffer, a temporary, the layer's weight, its KV pointer).
A forwarding runs the prologue, layer 0 and the epilogue through the full
launch path, where every first-use check fires, and stamps layers
1..L-1 from the same program with :meth:`CudaProcess.stamp`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from repro.errors import EngineError, InvalidValueError
from repro.models.config import WEIGHTED_LAYER_KERNELS, ModelConfig
from repro.models.kernels_catalog import all_kernel_keys, kernel_spec
from repro.models.weights import CheckpointStore, declared_sizes, weight_buffer_keys
from repro.simgpu.kernels import KernelParam, KernelSpec, ParamKind, magic_values
from repro.simgpu.memory import Buffer
from repro.simgpu.process import CudaProcess
from repro.simgpu.stream import (
    BOUND,
    LITERAL,
    SLOT,
    StampedLaunch,
    StampProgram,
)


@dataclass
class ForwardContext:
    """Persistent buffers a forwarding reads and writes.

    ``input_buffer``/``output_buffer`` are the engine's persistent graph I/O
    buffers (allocated once, before capture — so their contents never need
    materializing).  ``kv_buffer`` is the engine's KV cache region; layer ``i``
    addresses the interior pointer ``kv_buffer.address + i * kv_layer_stride``
    (exercising §4.1's within-range pointer matching); every layer's
    pointer must land inside ``kv_buffer``.
    """

    input_buffer: Buffer
    output_buffer: Buffer
    kv_buffer: Buffer
    kv_layer_stride: int = 0


#: Pointer sources of a layer launch besides its temporaries (an ``int``
#: source ``j`` is the layer's j-th temporary): the buffer carried into
#: the layer, the layer's own weight buffer of the launching kernel, and
#: the layer's KV pointer ``kv_buffer.address + layer * kv_layer_stride``.
X, WEIGHT, KV = "x", "weight", "kv"

Source = Union[str, int]


def layer_consts(hidden_size: int, layer: int) -> Dict[str, int]:
    """The constant operands of layer ``layer``'s launches, by role."""
    return {"n": hidden_size, "seed": layer + 1, "rot_steps": layer,
            "layer_idx": layer}


@dataclass(frozen=True)
class LayerLaunch:
    """One launch of a layer program: the kernel and its pointer sources."""

    key: str                                  # template kernel key
    pointers: Tuple[Tuple[str, Source], ...]  # (role, source)


@dataclass(frozen=True)
class LayerProgram:
    """One transformer layer as data, in launch order.

    A ``None`` step allocates the layer's next temporary; a
    :class:`LayerLaunch` launches one kernel (its constants come from
    :func:`layer_consts`).  Afterwards the layer pool-frees the carried-in
    buffer, then every temporary except ``out``, which it carries to the
    next layer — LIFO pool reuse across layers is what recreates Figure
    6's aliasing.
    """

    steps: Tuple[Optional[LayerLaunch], ...]
    out: int

    @property
    def launches(self) -> Tuple[LayerLaunch, ...]:
        return tuple(step for step in self.steps if step is not None)

    @property
    def temps(self) -> int:
        return sum(1 for step in self.steps if step is None)

    @property
    def weighted(self) -> Tuple[str, ...]:
        """Keys of the launches reading the layer's weight, in order."""
        return tuple(step.key for step in self.launches
                     if any(source == WEIGHT for _, source in step.pointers))


@functools.lru_cache(maxsize=None)
def layer_program(layer_kernels: Tuple[str, ...]) -> LayerProgram:
    """The program of a layer launching ``layer_kernels`` (a prefix of
    :data:`repro.models.config.LAYER_KERNEL_TEMPLATE`)."""
    has = set(layer_kernels)
    steps: List[Optional[LayerLaunch]] = []

    def emit(key: str, *inputs: Tuple[str, Source]) -> int:
        """Allocate a temporary and launch ``key`` writing it."""
        out = sum(1 for step in steps if step is None)
        steps.append(None)
        weight = ((("weight", WEIGHT),) if key in WEIGHTED_LAYER_KERNELS
                  else ())
        steps.append(LayerLaunch(key, inputs + weight + (("output", out),)))
        return out

    normed = emit("input_layernorm", ("input", X))
    qkv = emit("qkv_proj", ("input", normed))
    rotated = emit("rotary_embed", ("input", qkv))
    attn = emit("paged_attention", ("input", rotated), ("kv", KV))
    o_out = emit("o_proj", ("input", attn))
    carry = emit("attn_residual", ("input", X), ("input_b", o_out))
    normed2 = emit("post_layernorm", ("input", carry)) \
        if "post_layernorm" in has else carry
    mlp_in = emit("gate_up_proj", ("input", normed2)) \
        if "gate_up_proj" in has else normed2
    if "silu_and_mul" in has:
        mlp_in = emit("silu_and_mul", ("input", mlp_in), ("input_b", normed2))
    if "down_proj" in has:
        mlp_in = emit("down_proj", ("input", mlp_in))
    out = emit("mlp_residual", ("input", carry), ("input_b", mlp_in)) \
        if "mlp_residual" in has else mlp_in
    if "attn_output_scale" in has:
        out = emit("attn_output_scale", ("input", out))
    if "extra_layernorm" in has:
        out = emit("extra_layernorm", ("input", out))
    launched = tuple(step.key for step in steps if step is not None)
    if launched != tuple(layer_kernels):
        raise InvalidValueError(
            f"layer kernels {layer_kernels} are not a template prefix")
    return LayerProgram(steps=tuple(steps), out=out)


class Model:
    """One model instance living inside one simulated process."""

    def __init__(self, config: ModelConfig, process: CudaProcess):
        self.config = config
        self.process = process
        self.weight_buffers: Dict[str, Buffer] = {}
        self._specs: Dict[str, KernelSpec] = {
            key: kernel_spec(config, key) for key in all_kernel_keys(config)
        }
        self._weights_loaded = False
        self._stamp_programs: Dict[int, StampProgram] = {}
        self._weight_addresses: Optional[List[Tuple[int, ...]]] = None

    # -- loading-phase stages (timing is accounted by the engine) ------------

    def initialize_structure(self) -> None:
        """Stage 1: allocate every weight buffer, in deterministic order."""
        if self.weight_buffers:
            raise EngineError(f"{self.config.name}: structure already initialized")
        sizes = declared_sizes(self.config)
        for key in weight_buffer_keys(self.config):
            self.weight_buffers[key] = self.process.malloc(
                sizes[key], tag="weight")

    def load_weights(self, store: CheckpointStore) -> None:
        """Stage 2: stream the checkpoint into the pre-allocated buffers.

        Each tensor is a host->device copy paying real (simulated) PCIe/SSD
        bandwidth, so the stage's duration emerges from the copies rather
        than being asserted.
        """
        if not self.weight_buffers:
            raise EngineError(f"{self.config.name}: structure not initialized")
        for key, payload in store.iter_payloads(self.config):
            self.process.memcpy_h2d(self.weight_buffers[key], payload)
        self._weights_loaded = True

    @property
    def weights_loaded(self) -> bool:
        return self._weights_loaded

    # -- forwarding ------------------------------------------------------------

    def num_forward_kernels(self, batch_size: int) -> int:
        return self.config.nodes_for_batch(batch_size)

    def forward(self, batch_size: int, num_tokens: int,
                ctx: ForwardContext) -> Buffer:
        """Run one forwarding (eager, or recorded if the stream is capturing).

        Returns the output buffer.  Transient activations are pool-freed per
        layer; the caller supplies persistent I/O and KV buffers via ``ctx``.
        """
        process = self.process
        capturing = process.default_stream.is_capturing
        template = self.config.kernel_template()
        program = layer_program(template.layer_kernels)
        dims = {"batch_size": batch_size}

        launched = 0

        def launch(key: str, roles: Dict[str, int],
                   consts: Optional[Dict[str, int]] = None) -> None:
            nonlocal launched
            spec = self._specs[key]
            process.launch(spec, self._params(spec, roles, consts or {}),
                           launch_dims=dims)
            launched += 1

        temp_bytes = max(256, batch_size * self.config.hidden_size * 2)

        def temp() -> Buffer:
            return process.malloc(temp_bytes, tag="act")

        # Prologue: embedding.
        hidden = temp()
        launch("embed_tokens", {
            "input": ctx.input_buffer.address,
            "weight": self._weight("embed_tokens.weight").address,
            "output": hidden.address,
        })

        # The structurally identical layer stack (§5.2): layer 0 through
        # the full path, where library init, module loads, workspace setup
        # and capture violations fire; layers 1..L-1 stamped from the same
        # program.
        stamp = self._stamp_program(program, temp_bytes)
        bindings = self._layer_bindings(program, ctx, capturing)
        hidden = self._forward_layer(stamp, bindings[0], hidden, dims)
        hidden = process.stamp(stamp, bindings[1:], hidden, dims)
        launched += self.config.num_layers * len(program.launches)

        # Epilogue: final norm -> lm head -> sampling -> aux.
        normed = temp()
        launch("final_layernorm", {
            "input": hidden.address,
            "weight": self._weight("final_layernorm.weight").address,
            "output": normed.address,
        }, consts={"n": self.config.hidden_size})
        process.pool_free(hidden.address)
        logits = temp()
        launch("lm_head", {
            "input": normed.address,
            "weight": self._weight("lm_head.weight").address,
            "output": logits.address,
        })
        process.pool_free(normed.address)
        launch("sample", {
            "input": logits.address,
            "output": ctx.output_buffer.address,
        })
        for aux_index in range(template.epilogue_aux):
            aux_out = temp()
            launch(f"aux_{aux_index:02d}", {
                "input": ctx.output_buffer.address,
                "output": aux_out.address,
            })
            process.pool_free(aux_out.address)
        if batch_size in template.reduce_batches:
            reduce_out = temp()
            launch("batch_reduce", {
                "input": logits.address,
                "output": reduce_out.address,
            })
            process.pool_free(reduce_out.address)
        process.pool_free(logits.address)

        expected = self.num_forward_kernels(batch_size)
        if launched != expected:
            raise EngineError(
                f"{self.config.name}: forward launched {launched} kernels, "
                f"expected {expected} (batch {batch_size})")

        if not capturing:
            process.clock.advance(process.cost_model.eager_step_time(
                self.config.param_bytes, num_tokens, launched))
        return ctx.output_buffer

    # -- internals ---------------------------------------------------------------

    def _forward_layer(self, stamp: StampProgram,
                       binding: Tuple[Tuple[int, ...], Tuple[int, ...]],
                       x: Buffer, dims: Dict[str, int]) -> Buffer:
        """Run one layer of ``stamp`` through the full launch path, one
        ``malloc``/``launch``/``pool_free`` call per step; returns the
        buffer carried to the next layer."""
        process = self.process
        values, _bases = binding
        slots = [x]
        for step in stamp.steps:
            if step is None:
                slots.append(process.malloc(stamp.temp_size,
                                            tag=stamp.temp_tag))
                continue
            process.launch(step.spec, [
                KernelParam(slot.size, slots[index].address
                            if source == SLOT else values[index]
                            if source == BOUND else index)
                for slot, (source, index) in zip(step.spec.params,
                                                 step.operands)],
                launch_dims=dims)
        for index in stamp.frees:
            process.pool_free(slots[index].address)
        return slots[stamp.result]

    def _stamp_program(self, program: LayerProgram,
                       temp_bytes: int) -> StampProgram:
        """``program`` for :meth:`CudaProcess.stamp` (cached per size).

        Slot 0 is the carried-in buffer and slot ``j + 1`` temporary ``j``;
        a layer's binding (see :meth:`_layer_bindings`) holds its weight
        pointers in launch order, then its KV pointer, then its constants.
        """
        cached = self._stamp_programs.get(temp_bytes)
        if cached is not None:
            return cached
        weighted = program.weighted
        kv_index = len(weighted)
        const_index = {role: kv_index + 1 + position for position, role
                       in enumerate(layer_consts(0, 0))}
        launches = []
        for step in program.steps:
            if step is None:
                launches.append(None)
                continue
            spec = self._specs[step.key]
            pointers = dict(step.pointers)
            literals = self._const_defaults(spec)
            operands = []
            for slot in spec.params:
                if slot.kind is ParamKind.POINTER:
                    source = pointers.get(slot.role)
                    if source is None:          # patched in (magic) or null
                        operands.append((LITERAL, 0))
                    elif source == X:
                        operands.append((SLOT, 0))
                    elif source == WEIGHT:
                        operands.append((BOUND, weighted.index(step.key)))
                    elif source == KV:
                        operands.append((BOUND, kv_index))
                    else:
                        operands.append((SLOT, source + 1))
                elif slot.role in const_index:
                    operands.append((BOUND, const_index[slot.role]))
                elif slot.role in literals:
                    operands.append((LITERAL, literals[slot.role]))
                else:
                    raise InvalidValueError(
                        f"kernel {spec.name}: missing const {slot.role!r}")
            launches.append(StampedLaunch(spec, tuple(operands)))
        frees = (0,) + tuple(index + 1 for index in range(program.temps)
                             if index != program.out)
        stamp = self._stamp_programs[temp_bytes] = StampProgram(
            temp_size=temp_bytes, temp_tag="act", steps=tuple(launches),
            frees=frees, result=program.out + 1)
        return stamp

    def _layer_bindings(self, program: LayerProgram, ctx: ForwardContext,
                        capturing: bool) -> List[Tuple[Tuple[int, ...],
                                                       Tuple[int, ...]]]:
        """Per layer, the ``(values, bases)`` of :meth:`_stamp_program`."""
        layers = range(self.config.num_layers)
        kv = ctx.kv_buffer
        if capturing and not kv.contains(
                kv.address + layers[-1] * ctx.kv_layer_stride):
            raise InvalidValueError(
                f"{self.config.name}: layer {layers[-1]}'s KV pointer lies "
                f"outside the KV buffer at 0x{kv.address:x}")
        weights = self._layer_weights(program)
        hidden_size = self.config.hidden_size
        bindings = []
        for layer in layers:
            consts = tuple(layer_consts(hidden_size, layer).values())
            bindings.append((
                weights[layer] + (kv.address + layer * ctx.kv_layer_stride,)
                + consts,
                weights[layer] + (kv.address,) + (0,) * len(consts)))
        return bindings

    def _layer_weights(self, program: LayerProgram) -> List[Tuple[int, ...]]:
        """Per layer, the addresses of its weights in launch order."""
        if self._weight_addresses is None:
            self._weight_addresses = [
                tuple(self._weight(f"layer{layer:03d}.{key}.weight").address
                      for key in program.weighted)
                for layer in range(self.config.num_layers)]
        return self._weight_addresses

    def _weight(self, key: str) -> Buffer:
        buffer = self.weight_buffers.get(key)
        if buffer is None:
            raise EngineError(f"{self.config.name}: no weight buffer {key!r}; "
                              f"structure not initialized?")
        return buffer

    def _const_defaults(self, spec: KernelSpec) -> Dict[str, int]:
        """Constant operands a launch of ``spec`` gets unless given."""
        want_a, want_b = magic_values(spec.name)
        return {
            "magic_a_expected": want_a,
            "magic_b_expected": want_b,
            **layer_consts(self.config.hidden_size, 0),
        }

    def _params(self, spec: KernelSpec, roles: Dict[str, int],
                consts: Dict[str, int]) -> List[KernelParam]:
        defaults = self._const_defaults(spec)
        params: List[KernelParam] = []
        for slot in spec.params:
            if slot.kind is ParamKind.POINTER:
                params.append(KernelParam(slot.size, roles.get(slot.role, 0)))
            else:
                value = consts.get(slot.role, defaults.get(slot.role))
                if value is None:
                    raise InvalidValueError(
                        f"kernel {spec.name}: missing const {slot.role!r}")
                params.append(KernelParam(slot.size, int(value)))
        return params
