"""CNN inference workloads for the SSBP fingerprinting study (Fig 11).

The paper fingerprints six CNN models by the SSBP residue their
inference loops leave behind: each model's layer structure executes
store-load pairs at model-specific instruction addresses with
model-specific aliasing behaviour, so the distribution of C3 values
across SSBP entries is a stable signature.

A model here is a list of layers; each layer owns one store-load pair
site (its inner loop) and a per-inference activity profile — how many
aliasing (read-modify-write accumulations: convolutions, residual adds)
and non-aliasing (streaming: pooling, im2col copies) executions it
performs.  The counts are derived from the real architectures' layer
structure (depths, channel widths), scaled to simulation size.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu.isa import Program
from repro.cpu.machine import Machine
from repro.osm.process import Process
from repro.revng.stld import StldRunner, build_stld

__all__ = ["LayerSpec", "CnnModel", "CNN_MODELS", "CnnVictim", "model_names"]


@dataclass(frozen=True)
class LayerSpec:
    """One layer's per-inference stld activity."""

    name: str
    aliasing_runs: int
    streaming_runs: int


@dataclass(frozen=True)
class CnnModel:
    """A model: an ordered list of layers."""

    name: str
    layers: tuple[LayerSpec, ...]


def _conv_stack(prefix: str, blocks: list[tuple[int, int]]) -> tuple[LayerSpec, ...]:
    """Build a conv-stack profile from (aliasing, streaming) per block."""
    return tuple(
        LayerSpec(f"{prefix}{i}", aliasing, streaming)
        for i, (aliasing, streaming) in enumerate(blocks)
    )


#: Six models, as in Fig 11.  Aliasing/streaming counts echo each
#: architecture: VGG's plain deep conv stacks are accumulation-heavy;
#: GoogLeNet's inception branches add many small streaming layers;
#: ResNet's residual adds mix both; SE-ResNet adds squeeze-excite
#: (pooling + FC) streaming on top; AlexNet is shallow; MobileNetV2's
#: depthwise separable convs are streaming-dominated.
CNN_MODELS: dict[str, CnnModel] = {
    model.name: model
    for model in (
        CnnModel(
            "vgg16",
            _conv_stack(
                "conv",
                [(8, 2)] * 10 + [(6, 2)] * 3 + [(2, 6)] * 3,  # 13 conv + 3 fc
            ),
        ),
        CnnModel(
            "googlenet",
            _conv_stack(
                "incep",
                [(3, 5)] * 9 + [(2, 3)] * 9 + [(1, 7)] * 4,
            ),
        ),
        CnnModel(
            "resnet18",
            _conv_stack(
                "block",
                [(5, 3)] * 8 + [(4, 4)] * 4 + [(1, 2)] * 2,
            ),
        ),
        CnnModel(
            "seresnet18",
            _conv_stack(
                "seblock",
                [(5, 3)] * 8 + [(4, 4)] * 4 + [(2, 8)] * 6,  # + SE bottlenecks
            ),
        ),
        CnnModel(
            "alexnet",
            _conv_stack("conv", [(7, 3)] * 5 + [(3, 4)] * 3),
        ),
        CnnModel(
            "mobilenetv2",
            _conv_stack("dwconv", [(1, 6)] * 17 + [(2, 3)] * 2),
        ),
    )
}


def model_names() -> list[str]:
    return list(CNN_MODELS)


class CnnVictim:
    """A victim process running CNN inference passes.

    Each layer's inner loop is an stld placed at its own code address;
    an inference pass executes every layer's aliasing and streaming
    accesses in order, leaving the model's SSBP signature behind.
    """

    def __init__(
        self, machine: Machine, model: CnnModel, process: Process | None = None
    ) -> None:
        self.machine = machine
        self.model = model
        self.process = process or machine.kernel.create_process(
            f"cnn-{model.name}"
        )
        self.runner = StldRunner(machine, self.process)
        template = build_stld()
        self._layer_programs: list[Program] = [
            machine.load_program(self.process, template)
            for _ in model.layers
        ]

    def inference_pass(self) -> None:
        """One forward pass: every layer fires its access pattern."""
        run = self.runner.run
        for layer, program in zip(self.model.layers, self._layer_programs):
            for _ in range(layer.aliasing_runs):
                run(program, aliasing=True)
            for _ in range(layer.streaming_runs):
                run(program, aliasing=False)
