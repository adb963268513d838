"""Tests for Golden Dictionary generation (paper Step 1, Fig. 2)."""

import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.core.golden_dictionary import (
    PINNED_GOLDEN_DICTIONARIES,
    GoldenDictionary,
    generate_golden_dictionary,
    load_golden_dictionary,
)


# How far a regenerated fit may sit from the pinned ``fit.a``/``fit.b``:
# 10x least_squares' xtol, about 2**29 ULP at these magnitudes.
_FIT_REL_TOLERANCE = 1e-7


class TestGeneration:
    def test_default_half_size_is_eight(self, golden):
        assert golden.num_half_entries == 8
        assert golden.num_entries == 16

    def test_bits_per_value_is_four(self, golden):
        assert golden.index_bits == 3
        assert golden.bits_per_value == 4

    def test_half_is_positive_and_increasing(self, golden):
        assert np.all(golden.half > 0)
        assert np.all(np.diff(golden.half) > 0)

    def test_full_dictionary_is_symmetric(self, golden):
        full = golden.full()
        assert full.size == 16
        assert np.allclose(full, -full[::-1])

    def test_innermost_centroid_near_zero(self, golden):
        """Ward clustering of N(0,1) puts the first centroid close to zero."""
        assert golden.half[0] < 0.3

    def test_outermost_centroid_in_tail(self, golden):
        assert 1.8 < golden.half[-1] < 3.5

    def test_threshold_beyond_last_centroid(self, golden):
        assert golden.gaussian_threshold() > golden.half[-1]

    def test_generation_is_deterministic(self):
        a = generate_golden_dictionary(num_samples=4000, num_repeats=1, seed=5)
        b = generate_golden_dictionary(num_samples=4000, num_repeats=1, seed=5)
        assert np.allclose(a.half, b.half)

    @pytest.mark.parametrize(
        "key", sorted(PINNED_GOLDEN_DICTIONARIES), ids=lambda k: f"{k[1]}x{k[2]}-seed{k[3]}"
    )
    def test_default_dictionary_is_pinned(self, key):
        """Each pinned dictionary is what the generator builds, bit for bit."""
        params = dict(zip(
            ("num_entries", "num_samples", "num_repeats", "seed", "fixed_point_bits"), key
        ))
        built, loaded = generate_golden_dictionary(**params), load_golden_dictionary(**params)
        half_hex, a_hex, b_hex = PINNED_GOLDEN_DICTIONARIES[key]
        assert [float(x).hex() for x in built.half] == list(half_hex)
        assert loaded.half.dtype == built.half.dtype
        assert loaded.half.tobytes() == built.half.tobytes()
        assert (loaded.fit.a.hex(), loaded.fit.b.hex()) == (a_hex, b_hex)
        # least_squares stops at xtol=1e-8, so other scipy builds may move
        # the last ~28 bits (bit-identical on scipy 1.17.1 / numpy 2.4.6;
        # its method, x0 and Jacobian variants spread up to 2.6e-8, ~2.3e8 ULP).
        assert built.fit.a == pytest.approx(float.fromhex(a_hex), rel=_FIT_REL_TOLERANCE, abs=0)
        assert built.fit.b == pytest.approx(float.fromhex(b_hex), rel=_FIT_REL_TOLERANCE, abs=0)
        assert loaded.fit.num_entries == built.fit.num_entries == key[0] // 2
        assert loaded.num_entries == built.num_entries == key[0]
        assert loaded.fixed_point == built.fixed_point

    def test_default_parameterisations_are_the_pinned_ones(self):
        """Every default a caller builds through loads pinned bits."""
        from repro.experiments.accuracy import AccuracySettings
        from repro.experiments.measured import MeasurementSettings

        defaults = {(16, 50_000, 4, 0, 16)}
        for settings in (MeasurementSettings(), AccuracySettings()):
            defaults.add(
                (16, settings.golden_samples, settings.golden_repeats, settings.golden_seed, 16)
            )
        assert defaults == set(PINNED_GOLDEN_DICTIONARIES)

    def test_loaded_dictionaries_are_fresh_objects(self):
        first = load_golden_dictionary()
        first.half[0] = 0.0
        assert load_golden_dictionary().half[0] > 0
        assert load_golden_dictionary() is not load_golden_dictionary()

    def test_unpinned_parameters_are_generated(self):
        loaded = load_golden_dictionary(num_samples=4000, num_repeats=1, seed=5)
        built = generate_golden_dictionary(num_samples=4000, num_repeats=1, seed=5)
        assert loaded.half.tobytes() == built.half.tobytes()
        assert loaded.fit == built.fit and loaded.fixed_point == built.fixed_point

    def test_different_seed_changes_little(self):
        """The Golden Dictionary is stable across generated distributions.

        Individual centroids move a little between random draws (Ward merges
        near the tail are data dependent) but the fitted exponential — which
        is what the datapath actually uses — stays put.
        """
        a = generate_golden_dictionary(num_samples=8000, num_repeats=1, seed=1)
        b = generate_golden_dictionary(num_samples=8000, num_repeats=1, seed=2)
        assert a.fit.a == pytest.approx(b.fit.a, abs=0.06)
        assert a.fit.b == pytest.approx(b.fit.b, abs=0.15)
        assert np.allclose(a.half, b.half, rtol=0.4, atol=0.2)

    def test_odd_entry_count_rejected(self):
        with pytest.raises(ValueError):
            generate_golden_dictionary(num_entries=15, num_samples=1000)

    def test_zero_repeats_rejected(self):
        with pytest.raises(ValueError):
            generate_golden_dictionary(num_repeats=0, num_samples=1000)

    def test_eight_entry_dictionary(self):
        gd = generate_golden_dictionary(num_entries=8, num_samples=4000, num_repeats=1)
        assert gd.num_half_entries == 4
        assert gd.bits_per_value == 3


class TestExponentialView:
    def test_fit_attached(self, golden):
        assert golden.fit.num_entries == golden.num_half_entries
        assert golden.fit.a > 1.0

    def test_paper_fit_ballpark(self, golden):
        """The fitted curve should be in the neighbourhood of the paper's
        a=1.179, b=-0.977 (our clustering is not bit-identical to
        SciKit-Learn's, so the tolerance is wide)."""
        assert 1.1 < golden.fit.a < 1.35
        assert -1.2 < golden.fit.b < -0.6

    def test_exponential_half_close_to_clustered_half(self, golden):
        error = np.abs(golden.exponential_half() - golden.half)
        # The inner (heavily weighted) bins must fit tightly.
        assert error[0] < 0.1
        assert error[:4].max() < 0.2

    def test_stored_half_exponential_vs_raw(self, golden):
        assert np.allclose(golden.stored_half(True), golden.fit.magnitudes())
        assert np.allclose(golden.stored_half(False), golden.half, atol=golden.fixed_point.scale)


class TestValidation:
    def test_rejects_negative_half(self, golden):
        with pytest.raises(ValueError):
            GoldenDictionary(
                half=np.array([-0.1, 0.5, 1.0]),
                fit=golden.fit,
                fixed_point=golden.fixed_point,
            )

    def test_rejects_non_increasing_half(self, golden):
        with pytest.raises(ValueError):
            GoldenDictionary(
                half=np.array([0.5, 0.5, 1.0]),
                fit=golden.fit,
                fixed_point=golden.fixed_point,
            )


# Each script runs in a fresh interpreter with scipy unimportable: every
# default path (quantizers, an encoder forward, a decode, a measured
# scenario), then the two examples that quantize with the defaults.
_DEFAULT_PATHS = """
import numpy as np
from repro.core.model_quantizer import MokeyModelQuantizer
from repro.core.quantizer import MokeyQuantizer
from repro.experiments.measured import MeasurementSettings, evaluate_measured
from repro.transformer.config import TransformerConfig
from repro.transformer.index_model import IndexDomainModelExecutor, MultiStreamDecoder

nano = TransformerConfig(
    name="nano-no-scipy", num_layers=1, hidden_size=32, num_heads=4,
    intermediate_size=64, vocab_size=128, max_position_embeddings=64,
)
quantizer = MokeyQuantizer()
MokeyModelQuantizer()
states = np.random.default_rng(0).normal(size=(1, 8, 32)).astype(np.float32)
IndexDomainModelExecutor(nano, quantizer=quantizer).forward(states)
MultiStreamDecoder(nano, num_streams=1, quantizer=quantizer).run(prompt_length=4, decode_tokens=2)
evaluate_measured("bert-base", 8, settings=MeasurementSettings())
"""
_EXAMPLES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "examples")
_NO_SCIPY_SCRIPTS = {
    "default-paths": _DEFAULT_PATHS,
    **{
        name: "import runpy\n"
        f"runpy.run_path({os.path.join(_EXAMPLES, name)!r}, run_name='__main__')\n"
        for name in ("memory_compression.py", "quantize_transformer.py")
    },
}


@pytest.mark.parametrize("name", sorted(_NO_SCIPY_SCRIPTS))
def test_default_paths_never_import_scipy(name):
    script = (
        "import sys\nsys.modules['scipy'] = None  # any scipy import now raises ImportError\n"
        + _NO_SCIPY_SCRIPTS[name]
        + "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    ).stdout
    assert out.strip().splitlines()[-1] == "['scipy']"  # only the blocking None entry
