"""Tests for the CNN inference victims."""

from repro.cpu.machine import Machine
from repro.workloads.cnn import CNN_MODELS, CnnVictim


class TestModels:
    def test_six_models(self):
        assert len(CNN_MODELS) == 6

    def test_names_match_fig11_spirit(self):
        names = set(CNN_MODELS)
        assert {"vgg16", "googlenet", "resnet18", "seresnet18"} <= names

    def test_models_have_distinct_profiles(self):
        profiles = {
            tuple((l.aliasing_runs, l.streaming_runs) for l in m.layers)
            for m in CNN_MODELS.values()
        }
        assert len(profiles) == len(CNN_MODELS)


class TestCnnVictim:
    def test_inference_pass_trains_ssbp(self):
        machine = Machine(seed=11)
        victim = CnnVictim(machine, CNN_MODELS["alexnet"])
        unit = machine.core.thread(0).unit
        for _ in range(3):
            victim.inference_pass()
        # The model's aliasing layers left SSBP residue behind.
        assert unit.ssbp.occupancy > 0

    def test_layers_have_distinct_code_addresses(self):
        machine = Machine(seed=11)
        victim = CnnVictim(machine, CNN_MODELS["alexnet"])
        bases = {program.base_iva for program in victim._layer_programs}
        assert len(bases) == len(victim.model.layers)
