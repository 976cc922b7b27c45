"""Compute-kernel registry and bit-identity tests.

The load-bearing contract of :mod:`repro.kernels`: every registered kernel
is **bit-identical** to the ``"python"`` reference — same detection times,
same origins, same carried detector state — so kernel selection (explicit,
``REPRO_KERNEL``, or ``"auto"``) can never change a report.  The suite locks
that at two levels:

* raw kernel functions on randomised inputs (scan, resolve);
* whole experiment reports across named scenarios, seed policies and the
  importance trial mode.
"""

import os
import stat
import warnings

import numpy as np
import pytest

from repro.kernels import (
    KERNEL_NAMES,
    _registry,
    _warn_unavailable,
    available_kernels,
    get_kernel,
)
from repro.kernels import cext, reference
from repro.scenarios import (
    ExperimentRunner,
    Scenario,
    get_scenario,
    named_scenarios,
)

DURATION = 2e-8
DEAD_TIME = 1.1e-8
GATE_RECOVERY = 2e-9


def _per_cell_sorted(rng, bounds, high):
    """Uniform arrival offsets, sorted within each CSR cell segment."""
    values = rng.uniform(0.0, high, int(bounds[-1]))
    for cell in range(bounds.size - 1):
        segment = slice(int(bounds[cell]), int(bounds[cell + 1]))
        values[segment] = np.sort(values[segment])
    return values


def _scan_inputs(rng, windows=400):
    """Randomised device-scan inputs exercising every origin branch."""
    counts = rng.integers(0, 3, windows)
    bounds = np.zeros(windows + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    return {
        "photon_rel": rng.uniform(0.0, DURATION, windows),
        "photon_valid": rng.random(windows) < 0.7,
        "dark_rel": _per_cell_sorted(rng, bounds, DURATION),
        "dark_bounds": bounds,
        "trap_filled": rng.random(windows) < 0.4,
        "trap_release": rng.uniform(0.0, 4.0 * DURATION, windows),
    }


def _resolve_inputs(rng, windows=96, channels=5, secondaries=2):
    """Randomised multichannel resolver inputs (inf = no candidate)."""
    primary = rng.uniform(0.0, DURATION, (windows, channels))
    primary[rng.random((windows, channels)) < 0.4] = np.inf
    secondary = rng.uniform(0.0, DURATION, (secondaries, windows, channels))
    secondary[rng.random(secondary.shape) < 0.6] = np.inf
    cells = windows * channels
    dark_counts = rng.integers(0, 2, cells)
    dark_bounds = np.zeros(cells + 1, dtype=np.int64)
    np.cumsum(dark_counts, out=dark_bounds[1:])
    background_counts = rng.integers(0, 2, cells)
    background_bounds = np.zeros(cells + 1, dtype=np.int64)
    np.cumsum(background_counts, out=background_bounds[1:])
    return {
        "primary": primary,
        "secondary": secondary,
        "dark_rel": _per_cell_sorted(rng, dark_bounds, DURATION),
        "dark_bounds": dark_bounds,
        "background_rel": _per_cell_sorted(rng, background_bounds, DURATION),
        "background_bounds": background_bounds,
        "trap_filled": rng.random((windows, channels)) < 0.4,
        "trap_release": rng.uniform(0.0, 4.0 * DURATION, (windows, channels)),
    }


class TestRegistry:
    def test_reference_tiers_are_always_available(self):
        names = available_kernels()
        assert "python" in names
        assert set(names) <= set(KERNEL_NAMES)
        assert "auto" not in names  # a resolution rule, not a kernel

    def test_named_lookup_and_auto_resolution(self):
        assert get_kernel("python").name == "python"
        # auto resolves to a registered kernel, preferring native tiers.
        assert get_kernel("auto").name in available_kernels()
        assert get_kernel(None).name == get_kernel("auto").name

    def test_unknown_name_is_an_error(self):
        for name in ("cuda", "numba", "vector"):
            with pytest.raises(ValueError, match="unknown kernel"):
                get_kernel(name)

    def test_environment_drives_default_but_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "python")
        assert get_kernel().name == "python"
        monkeypatch.setenv("REPRO_KERNEL", "cext")
        assert get_kernel("python").name == "python"
        monkeypatch.setenv("REPRO_KERNEL", "not-a-kernel")
        with pytest.raises(ValueError, match="unknown kernel"):
            get_kernel()

    def test_unavailable_kernel_warns_once_and_falls_back(self, monkeypatch, tmp_path):
        # Force the native tier out: a compiler that always fails, and an
        # empty cache so no previously built library can be reused.
        monkeypatch.setenv("CC", "false")
        monkeypatch.setenv("REPRO_CEXT_CACHE", str(tmp_path / "cext-cache"))
        _registry.cache_clear()
        _warn_unavailable.cache_clear()
        try:
            assert available_kernels() == ("python",)
            assert get_kernel("auto").name == "python"
            with pytest.warns(RuntimeWarning, match="falling back") as record:
                assert get_kernel("cext").name == "python"
            # The warning carries why the build failed.
            assert "exited with status 1" in str(record[0].message)
            # The degradation is reported once, not per chunk.
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert get_kernel("cext").name == "python"
        finally:
            monkeypatch.undo()
            _registry.cache_clear()
            _warn_unavailable.cache_clear()

    def test_python_kernel_has_no_native_resolver_or_arbiter(self):
        # By design: under "python" the array layer keeps its in-module fast
        # path; no kernel carries an arbiter, the bus has one grant loop.
        assert get_kernel("python").resolve_windows is None
        for name in available_kernels():
            assert get_kernel(name).arbitrate is None, name


class TestSafeLoading:
    """The native library loads only from a cache the current user controls."""

    @pytest.fixture()
    def fresh_registry(self, monkeypatch):
        _registry.cache_clear()
        _warn_unavailable.cache_clear()
        yield monkeypatch
        monkeypatch.undo()
        _registry.cache_clear()
        _warn_unavailable.cache_clear()

    def _refused(self, reason):
        assert "cext" not in available_kernels()
        with pytest.warns(RuntimeWarning, match="falling back") as record:
            assert get_kernel("cext").name == "python"
        assert reason in str(record[0].message)
        assert get_kernel("auto").name == "python"

    def test_planted_world_writable_library_is_refused(self, fresh_registry, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir(mode=0o700)
        planted = cache / cext.library_name()
        planted.write_bytes(b"not a library")
        planted.chmod(0o666)
        fresh_registry.setenv("REPRO_CEXT_CACHE", str(cache))
        self._refused("group- or world-writable")
        assert planted.read_bytes() == b"not a library"  # neither loaded nor replaced

    def test_world_writable_cache_directory_is_refused(self, fresh_registry, tmp_path):
        cache = tmp_path / "shared"
        cache.mkdir()
        cache.chmod(0o777)
        fresh_registry.setenv("REPRO_CEXT_CACHE", str(cache))
        self._refused("group- or world-writable")
        assert list(cache.iterdir()) == []  # nothing built into it either

    def test_cache_owned_by_another_user_is_refused(self, fresh_registry, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir(mode=0o700)
        fresh_registry.setenv("REPRO_CEXT_CACHE", str(cache))
        uid = os.getuid()
        fresh_registry.setattr(cext.os, "getuid", lambda: uid + 1)
        self._refused("not the current user")

    def test_default_cache_is_per_user_and_private(self, fresh_registry, tmp_path):
        fresh_registry.delenv("REPRO_CEXT_CACHE", raising=False)
        fresh_registry.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert cext._cache_dir() == tmp_path / "xdg" / "repro-kernels"
        fresh_registry.delenv("XDG_CACHE_HOME")
        fresh_registry.setenv("HOME", str(tmp_path / "home"))
        assert cext._cache_dir() == tmp_path / "home" / ".cache" / "repro-kernels"
        try:
            library = cext._build_library()
        except cext.BuildError as error:
            pytest.skip(f"no native build on this host: {error}")
        for path in (library.parent, library):
            mode = stat.S_IMODE(path.stat().st_mode)
            assert path.stat().st_uid == os.getuid()
            assert not mode & (stat.S_IWGRP | stat.S_IWOTH), oct(mode)
        assert stat.S_IMODE(library.parent.stat().st_mode) == 0o700


class TestScanBitIdentity:
    @pytest.mark.parametrize("seed", range(3))
    def test_every_kernel_matches_the_reference_scan(self, seed):
        rng = np.random.default_rng(seed)
        inputs = _scan_inputs(rng)
        args = (
            inputs["photon_rel"], inputs["photon_valid"],
            inputs["dark_rel"], inputs["dark_bounds"],
            inputs["trap_filled"], inputs["trap_release"],
            DEAD_TIME, GATE_RECOVERY, DURATION,
            0.0, [-np.inf], [np.inf], [0, inputs["photon_rel"].size],
        )
        ref_times, ref_origins, ref_fire, ref_pending = reference.scan_windows(*args)
        for name in available_kernels():
            times, origins, fire, pending = get_kernel(name).scan_windows(*args)
            assert np.array_equal(times, ref_times, equal_nan=True), name
            assert np.array_equal(origins, ref_origins), name
            assert fire.tolist() == ref_fire.tolist(), name
            assert pending.tolist() == ref_pending.tolist(), name

    def test_state_carries_across_calls_identically(self):
        # The scan's cross-chunk state (last fire, pending afterpulse) must
        # round-trip through every kernel exactly, or chunked runs diverge.
        rng = np.random.default_rng(7)
        first = _scan_inputs(rng, windows=50)
        second = _scan_inputs(rng, windows=50)
        results = {}
        for name in available_kernels():
            kernel = get_kernel(name)
            fire, pending = [-np.inf], [np.inf]
            outputs = []
            for base, inputs in ((0.0, first), (50 * DURATION, second)):
                times, origins, fire, pending = kernel.scan_windows(
                    inputs["photon_rel"], inputs["photon_valid"],
                    inputs["dark_rel"], inputs["dark_bounds"],
                    inputs["trap_filled"], inputs["trap_release"],
                    DEAD_TIME, GATE_RECOVERY, DURATION, base, fire, pending, [0, 50],
                )
                outputs.append((times, origins))
            results[name] = (outputs, fire.tolist(), pending.tolist())
        reference_result = results["python"]
        for name, result in results.items():
            for (times, origins), (ref_times, ref_origins) in zip(
                result[0], reference_result[0]
            ):
                assert np.array_equal(times, ref_times, equal_nan=True), name
                assert np.array_equal(origins, ref_origins), name
            assert result[1:] == reference_result[1:], name


    @pytest.mark.parametrize(
        "bounds, fire, pending",
        [
            ([0, 20], [-np.inf, -np.inf], [np.inf, np.inf]),  # two states, one segment
            ([0, 20], -np.inf, np.inf),  # a bare float is not a per-segment state
            ([0, 10, 20], [-np.inf], [np.inf]),
            ([0, 19], [-np.inf], [np.inf]),  # bounds stop short of the windows
            ([0, 12, 8, 20], [-np.inf] * 3, [np.inf] * 3),  # bounds fall
        ],
    )
    def test_every_kernel_rejects_malformed_segments(self, bounds, fire, pending):
        inputs = _scan_inputs(np.random.default_rng(0), windows=20)
        for name in available_kernels():
            with pytest.raises(ValueError):
                get_kernel(name).scan_windows(
                    inputs["photon_rel"], inputs["photon_valid"],
                    inputs["dark_rel"], inputs["dark_bounds"],
                    inputs["trap_filled"], inputs["trap_release"],
                    DEAD_TIME, GATE_RECOVERY, DURATION, 0.0, fire, pending, bounds,
                )


class TestResolveBitIdentity:
    @pytest.mark.parametrize("seed", range(3))
    def test_native_resolvers_match_the_reference(self, seed):
        natives = [
            get_kernel(name)
            for name in available_kernels()
            if get_kernel(name).resolve_windows is not None
        ]
        if not natives:
            pytest.skip("no native resolver kernel in this environment")
        rng = np.random.default_rng(seed)
        inputs = _resolve_inputs(rng)
        args = (
            inputs["primary"], inputs["secondary"],
            inputs["dark_rel"], inputs["dark_bounds"],
            inputs["background_rel"], inputs["background_bounds"],
            inputs["trap_filled"], inputs["trap_release"],
            DEAD_TIME, GATE_RECOVERY, DURATION, 0.0,
        )
        ref_times, ref_origins = reference.resolve_windows(*args)
        for kernel in natives:
            times, origins = kernel.resolve_windows(*args)
            assert np.array_equal(times, ref_times, equal_nan=True), kernel.name
            assert np.array_equal(origins, ref_origins), kernel.name

    def test_empty_secondary_stack(self):
        natives = [
            get_kernel(name)
            for name in available_kernels()
            if get_kernel(name).resolve_windows is not None
        ]
        if not natives:
            pytest.skip("no native resolver kernel in this environment")
        rng = np.random.default_rng(11)
        inputs = _resolve_inputs(rng, windows=32, channels=3, secondaries=1)
        empty = np.empty((0,) + inputs["primary"].shape)
        args = (
            inputs["primary"], empty,
            inputs["dark_rel"], inputs["dark_bounds"],
            inputs["background_rel"], inputs["background_bounds"],
            inputs["trap_filled"], inputs["trap_release"],
            DEAD_TIME, GATE_RECOVERY, DURATION, 0.0,
        )
        ref_times, ref_origins = reference.resolve_windows(*args)
        for kernel in natives:
            times, origins = kernel.resolve_windows(*args)
            assert np.array_equal(times, ref_times, equal_nan=True), kernel.name
            assert np.array_equal(origins, ref_origins), kernel.name


def _equivalence_scenario(seed_policy="per-point", trial_mode="naive"):
    scenario = Scenario(
        name=f"kernel-equivalence-{seed_policy}-{trial_mode}",
        description="grid exercised by the kernel-equivalence tests",
        link_overrides={"ppm_bits": 4},
        sweep_axes={"mean_detected_photons": (5.0, 40.0)},
        metrics=("ber", "symbol_error_rate"),
        bits_per_point=256,
        seed_policy=seed_policy,
    )
    if trial_mode != "naive":
        scenario = scenario.with_trial_mode(trial_mode)
    return scenario


class TestScenarioEquivalence:
    """Whole-report bit-identity across kernels.

    ``REPRO_KERNEL`` drives the selection so the scenario mapping (and hence
    the report digest) is identical across runs — the only thing allowed to
    differ is which implementation executed the hot loops.
    """

    @pytest.mark.parametrize("seed_policy", ("per-point", "shared"))
    def test_grid_bit_identical_across_kernels(self, monkeypatch, seed_policy):
        scenario = _equivalence_scenario(seed_policy)
        monkeypatch.setenv("REPRO_KERNEL", "python")
        expected = ExperimentRunner(scenario, seed=11).run().to_mapping()
        for name in available_kernels():
            monkeypatch.setenv("REPRO_KERNEL", name)
            report = ExperimentRunner(scenario, seed=11).run().to_mapping()
            assert report == expected, name

    def test_importance_mode_bit_identical_across_kernels(self, monkeypatch):
        # Importance-sampled chunks run the dedicated python path whatever
        # kernel is selected — selection must still be a no-op on results.
        scenario = _equivalence_scenario(trial_mode="importance")
        monkeypatch.setenv("REPRO_KERNEL", "python")
        expected = ExperimentRunner(scenario, seed=5).run().to_mapping()
        for name in available_kernels():
            monkeypatch.setenv("REPRO_KERNEL", name)
            report = ExperimentRunner(scenario, seed=5).run().to_mapping()
            assert report == expected, name

    def test_explicit_scenario_kernel_matches_the_default(self):
        # The kernel= field threads end-to-end (scenario -> trial -> link ->
        # device); only the scenario mapping may differ from a default run.
        scenario = _equivalence_scenario()
        expected = ExperimentRunner(scenario, seed=3).run().to_mapping()
        for name in available_kernels():
            pinned = ExperimentRunner(
                scenario.with_kernel(name), seed=3
            ).run().to_mapping()
            assert pinned["scenario"].pop("kernel") == name
            assert pinned == expected, name

    @pytest.mark.scenario_smoke
    def test_every_named_scenario_bit_identical_across_kernels(self, monkeypatch):
        # The acceptance contract of the kernel layer: for every library
        # scenario — link sweeps, multichannel arrays, NoC buses — kernel
        # selection never changes a single bit of the report.
        for name in named_scenarios():
            scenario = get_scenario(name).with_budget(128)
            monkeypatch.setenv("REPRO_KERNEL", "python")
            expected = ExperimentRunner(scenario, seed=0).run().to_mapping()
            for kernel_name in available_kernels():
                monkeypatch.setenv("REPRO_KERNEL", kernel_name)
                report = ExperimentRunner(scenario, seed=0).run().to_mapping()
                assert report == expected, (name, kernel_name)


class TestScenarioKernelField:
    def test_kernel_validated_against_known_names(self):
        for name in ("cuda", "numba", "vector"):
            with pytest.raises(ValueError, match="kernel must be one of"):
                _equivalence_scenario().with_kernel(name)

    def test_kernel_requires_a_capable_backend(self):
        with pytest.raises(ValueError, match="support"):
            Scenario(
                name="scalar-kernel",
                backend="scalar",
                bits_per_point=64,
                kernel="cext",
            )

    def test_kernel_round_trips_through_the_mapping(self):
        scenario = _equivalence_scenario().with_kernel("cext")
        mapping = scenario.to_mapping()
        assert mapping["kernel"] == "cext"
        assert Scenario.from_mapping(mapping) == scenario
        # Unset kernel stays out of the mapping: committed digests are stable.
        assert "kernel" not in _equivalence_scenario().to_mapping()
