"""The per-launch forward that ``Model.forward`` is pinned to.

:class:`FullPathModel` runs every layer of a forwarding through the full
launch path, one ``malloc``/``launch``/``pool_free`` call at a time, with
the hand-written layer body ``Model`` used before its layers became a
:class:`repro.models.model.LayerProgram`.  The oracle tests compare a
stamped forwarding against it event for event.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import EngineError, InvalidValueError
from repro.models.model import ForwardContext, Model
from repro.simgpu.kernels import KernelParam, KernelSpec, ParamKind, magic_values
from repro.simgpu.memory import Buffer


class FullPathModel(Model):
    """A Model whose every layer launches through ``Stream.launch_kernel``."""

    def forward(self, batch_size: int, num_tokens: int,
                ctx: ForwardContext) -> Buffer:
        process = self.process
        stream = process.default_stream
        capturing = stream.is_capturing
        template = self.config.kernel_template()

        launched = 0

        def launch(key: str, roles: Dict[str, int],
                   consts: Optional[Dict[str, int]] = None,
                   dims: Optional[Dict[str, int]] = None) -> None:
            nonlocal launched
            spec = self._specs[key]
            process.launch(spec, self._oracle_params(spec, roles, consts or {}),
                           launch_dims=dims or {"batch_size": batch_size})
            launched += 1

        temp_bytes = max(256, batch_size * self.config.hidden_size * 2)

        def temp() -> Buffer:
            return process.malloc(temp_bytes, tag="act")

        hidden = temp()
        launch("embed_tokens", {
            "input": ctx.input_buffer.address,
            "weight": self._weight("embed_tokens.weight").address,
            "output": hidden.address,
        })
        for layer in range(self.config.num_layers):
            hidden = self._oracle_layer(layer, hidden, ctx, temp, launch,
                                        template.layer_kernels)
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

    def _oracle_layer(self, layer: int, hidden: Buffer, ctx: ForwardContext,
                      temp, launch, layer_kernels) -> Buffer:
        w = lambda kernel_key: self._weight(
            f"layer{layer:03d}.{kernel_key}.weight").address
        kv_pointer = ctx.kv_buffer.address + layer * ctx.kv_layer_stride
        has = set(layer_kernels)
        consts_n = {"n": self.config.hidden_size}
        temps: List[Buffer] = []

        def new_temp() -> Buffer:
            buffer = temp()
            temps.append(buffer)
            return buffer

        x = hidden
        normed = new_temp()
        launch("input_layernorm", {
            "input": x.address, "weight": w("input_layernorm"),
            "output": normed.address}, consts=consts_n)
        qkv = new_temp()
        launch("qkv_proj", {
            "input": normed.address, "weight": w("qkv_proj"),
            "output": qkv.address}, consts={"seed": layer + 1})
        rotated = new_temp()
        launch("rotary_embed", {
            "input": qkv.address, "output": rotated.address},
            consts={"rot_steps": layer})
        attn = new_temp()
        launch("paged_attention", {
            "input": rotated.address, "kv": kv_pointer,
            "output": attn.address}, consts={"layer_idx": layer})
        o_out = new_temp()
        launch("o_proj", {
            "input": attn.address, "weight": w("o_proj"),
            "output": o_out.address})
        carry = new_temp()
        launch("attn_residual", {
            "input": x.address, "input_b": o_out.address,
            "output": carry.address})

        if "post_layernorm" in has:
            normed2 = new_temp()
            launch("post_layernorm", {
                "input": carry.address, "weight": w("post_layernorm"),
                "output": normed2.address}, consts=consts_n)
        else:
            normed2 = carry
        if "gate_up_proj" in has:
            gate = new_temp()
            launch("gate_up_proj", {
                "input": normed2.address, "weight": w("gate_up_proj"),
                "output": gate.address})
            mlp_in = gate
        else:
            mlp_in = normed2
        if "silu_and_mul" in has:
            activated = new_temp()
            launch("silu_and_mul", {
                "input": mlp_in.address, "input_b": normed2.address,
                "output": activated.address})
            mlp_in = activated
        if "down_proj" in has:
            down = new_temp()
            launch("down_proj", {
                "input": mlp_in.address, "weight": w("down_proj"),
                "output": down.address})
            mlp_in = down
        if "mlp_residual" in has:
            merged = new_temp()
            launch("mlp_residual", {
                "input": carry.address, "input_b": mlp_in.address,
                "output": merged.address})
            out = merged
        else:
            out = mlp_in
        if "attn_output_scale" in has:
            scaled = new_temp()
            launch("attn_output_scale", {
                "input": out.address, "output": scaled.address})
            out = scaled
        if "extra_layernorm" in has:
            extra = new_temp()
            launch("extra_layernorm", {
                "input": out.address, "weight": w("extra_layernorm"),
                "output": extra.address}, consts=consts_n)
            out = extra

        process = self.process
        process.pool_free(x.address)
        for buffer in temps:
            if buffer is not out:
                process.pool_free(buffer.address)
        return out

    def _oracle_params(self, spec: KernelSpec, roles: Dict[str, int],
                       consts: Dict[str, int]) -> List[KernelParam]:
        want_a, want_b = magic_values(spec.name)
        defaults = {
            "magic_a_expected": want_a,
            "magic_b_expected": want_b,
            "seed": 1,
            "n": self.config.hidden_size,
            "rot_steps": 0,
            "layer_idx": 0,
        }
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
