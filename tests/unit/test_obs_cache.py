"""Obs x exec interplay: cache versioning, key identity, IPC survival."""

from __future__ import annotations

import numpy as np

import repro
from repro.exec import plan as plan_mod
from repro.exec.cache import ResultCache
from repro.exec.plan import plan_grid
from repro.exec.pool import execute_plan
from repro.obs import ObsConfig

from tests.exec_helpers import tiny_trace


def make_plan(obs=None):
    return plan_grid(
        repro.tiny(),
        {"A": tiny_trace("A")},
        ("cont",),
        ("min",),
        obs=obs,
    )


class TestCacheVersioning:
    def test_stale_salt_entries_are_misses(self, tmp_path, monkeypatch):
        """Entries cached under an older salt must never be served.

        Each salt bump marks a change to what a cached ``RunResult``
        carries (v2: obs schema; v3: fault telemetry in ``extra``;
        v4: backend field on specs/results; v5: epoch field on specs;
        v6: vectorized default flow solver + fabric wake guard; v7:
        array default flow fabric + flow_params field on specs; v8:
        the repro.mlcomms training family's expansions and app
        names; v9: one max-min fill per flow fabric, packet epoch
        cells' non-minimal share, and ``RunResult.salt``; v10: the key
        payload is every ``RunSpec`` field, four unset fields gone); a
        warm cache directory from an older salt has to behave as fully
        cold.
        """
        assert plan_mod.CODE_SALT == "repro-exec/v10"
        cache = ResultCache(tmp_path)

        monkeypatch.setattr(plan_mod, "CODE_SALT", "repro-exec/v9")
        old_keys = make_plan().keys()
        report_v9 = execute_plan(make_plan(), cache=cache)
        assert report_v9.done == 1 and report_v9.cached == 0

        monkeypatch.undo()
        new_keys = make_plan().keys()
        assert set(old_keys).isdisjoint(new_keys)
        report_v10 = execute_plan(make_plan(), cache=cache)
        assert report_v10.done == 1 and report_v10.cached == 0
        # And the v10 entry now hits under the v10 salt.
        assert execute_plan(make_plan(), cache=cache).cached == 1

    def test_obs_config_is_part_of_cell_identity(self):
        bare = make_plan().keys()[0]
        observed = make_plan(obs=ObsConfig(window_ns=10_000.0)).keys()[0]
        other_window = make_plan(obs=ObsConfig(window_ns=20_000.0)).keys()[0]
        assert len({bare, observed, other_window}) == 3
        # Equal configs produce equal keys (value identity, not object).
        again = make_plan(obs=ObsConfig(window_ns=10_000.0)).keys()[0]
        assert again == observed


class TestObsThroughExecutor:
    def test_obs_survives_cache_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        plan = make_plan(obs=ObsConfig(window_ns=10_000.0))
        fresh = execute_plan(plan, cache=cache)
        assert fresh.done == 1
        ts = fresh.outcomes[0].result.obs
        assert ts is not None and ts.num_windows >= 1

        served = execute_plan(plan, cache=cache)
        assert served.cached == 1
        cached_ts = served.outcomes[0].result.obs
        assert cached_ts is not None
        assert (cached_ts.bytes_fwd == ts.bytes_fwd).all()
        assert np.allclose(cached_ts.stall_ns, ts.stall_ns)
        assert cached_ts.events == ts.events

    def test_obs_survives_worker_ipc(self):
        plan = make_plan(obs=ObsConfig(window_ns=10_000.0))
        report = execute_plan(plan, max_workers=2)
        assert report.done == 1
        ts = report.outcomes[0].result.obs
        assert ts is not None and ts.bytes_fwd.sum() > 0

    def test_unobserved_cells_stay_obs_free(self, tmp_path):
        report = execute_plan(make_plan(), cache=ResultCache(tmp_path))
        assert report.outcomes[0].result.obs is None
