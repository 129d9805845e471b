"""Tests for the content-addressed on-disk result cache."""

import json

import pytest

from repro.engine.cache import SCHEMA_VERSION, ResultCache
from repro.engine.jobs import (
    VERDICT_TIMEOUT,
    VerificationJob,
    execute_engine,
    failure_result,
)
from repro.models import TABLE1_BENCHMARKS, vme_bus

from tests.stg.test_hashing import build as build_permutable


def _job(prop="csc", name="RING"):
    return VerificationJob(stg=TABLE1_BENCHMARKS[name](), property=prop)


class TestRoundTrip:
    def test_cold_miss_then_warm_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = _job()
        assert cache.get(job) is None
        assert cache.misses == 1

        result = execute_engine(job, "ilp")
        assert cache.put(job, result)
        cached = cache.get(job)
        assert cached is not None
        assert cache.hits == 1
        assert cached.from_cache is True
        assert cached.verdict == result.verdict
        assert cached.holds == result.holds
        assert cached.engine == result.engine
        assert cached.witness == result.witness
        assert len(cache) == 1

    def test_key_separates_properties(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_job("csc"), execute_engine(_job("csc"), "ilp"))
        assert cache.get(_job("usc")) is None

    def test_key_separates_models(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_job(), execute_engine(_job(), "ilp"))
        assert cache.get(_job(name="LAZYRING")) is None

    def test_reordered_construction_hits_same_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        original = VerificationJob(stg=build_permutable(), property="csc")
        cache.put(original, execute_engine(original, "sg"))
        reordered = VerificationJob(
            stg=build_permutable(
                place_order=(2, 0, 3, 1), transition_order=(1, 3, 2, 0)
            ),
            property="csc",
        )
        assert cache.get(reordered) is not None

    def test_verdict_served_across_engine_choices(self, tmp_path):
        cache = ResultCache(tmp_path)
        single = VerificationJob(stg=vme_bus(), property="csc", engines=("sg",))
        cache.put(single, execute_engine(single, "sg"))
        portfolio = VerificationJob(
            stg=vme_bus(), property="csc", engines=("ilp", "sat")
        )
        hit = cache.get(portfolio)
        assert hit is not None and hit.engine == "sg"


class TestSoundness:
    def test_unsound_results_never_stored(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = _job()
        timeout = failure_result(job, VERDICT_TIMEOUT, error="too slow")
        assert cache.put(job, timeout) is False
        assert cache.get(job) is None
        assert len(cache) == 0

    def test_schema_version_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = _job()
        cache.put(job, execute_engine(job, "ilp"))
        (entry,) = list(tmp_path.glob("??/*.json"))
        payload = json.loads(entry.read_text())
        payload["schema"] = SCHEMA_VERSION + 1
        entry.write_text(json.dumps(payload))
        assert cache.get(job) is None

    def test_corrupt_entries_are_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = _job()
        cache.put(job, execute_engine(job, "ilp"))
        (entry,) = list(tmp_path.glob("??/*.json"))
        entry.write_text("{not json")
        assert cache.get(job) is None


class TestMaintenance:
    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        for prop in ("usc", "csc"):
            cache.put(_job(prop), execute_engine(_job(prop), "ilp"))
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_empty_cache_dir_never_created_eagerly(self, tmp_path):
        cache = ResultCache(tmp_path / "sub")
        assert len(cache) == 0
        assert cache.clear() == 0
        assert not (tmp_path / "sub").exists()


class TestStats:
    def test_empty_store(self, tmp_path):
        stats = ResultCache(tmp_path / "nope").stats()
        assert stats["entries"] == 0
        assert stats["total_bytes"] == 0
        assert stats["oldest_mtime"] is None

    def test_breakdowns(self, tmp_path):
        cache = ResultCache(tmp_path)
        for prop in ("usc", "csc"):
            cache.put(_job(prop), execute_engine(_job(prop), "ilp"))
        cache.put(
            _job("csc", "LAZYRING"),
            execute_engine(_job("csc", "LAZYRING"), "ilp"),
        )
        stats = cache.stats()
        assert stats["entries"] == 3
        assert stats["total_bytes"] > 0
        assert stats["by_property"] == {"usc": 1, "csc": 2}
        # RING holds CSC but violates USC; LAZYRING violates CSC
        assert stats["by_verdict"] == {"holds": 1, "violated": 2}
        assert stats["by_schema"] == {str(SCHEMA_VERSION): 3}
        assert stats["oldest_mtime"] <= stats["newest_mtime"]
        assert stats["unreadable"] == 0

    def test_unreadable_entries_counted_not_fatal(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(_job(), execute_engine(_job(), "ilp"))
        (entry,) = list(tmp_path.glob("??/*.json"))
        entry.write_text("{broken")
        stats = cache.stats()
        assert stats["entries"] == 0
        assert stats["unreadable"] == 1


class TestPrune:
    def test_prunes_only_old_entries(self, tmp_path):
        import os
        import time

        cache = ResultCache(tmp_path)
        cache.put(_job("usc"), execute_engine(_job("usc"), "ilp"))
        cache.put(_job("csc"), execute_engine(_job("csc"), "ilp"))
        old = cache._path(cache.key_for(_job("usc")))
        week_ago = time.time() - 7 * 86400
        os.utime(old, (week_ago, week_ago))
        assert cache.prune(older_than=86400) == 1
        assert not old.exists()
        assert cache.get(_job("csc")) is not None
        # nothing left over the cutoff: pruning again removes nothing
        assert cache.prune(older_than=86400) == 0

    def test_prune_zero_removes_everything_old_keeps_now(self, tmp_path):
        import os

        cache = ResultCache(tmp_path)
        cache.put(_job(), execute_engine(_job(), "ilp"))
        (entry,) = list(tmp_path.glob("??/*.json"))
        os.utime(entry, (1.0, 1.0))
        assert cache.prune(older_than=0) == 1

    def test_prune_sweeps_orphaned_tmp_files(self, tmp_path):
        import os

        cache = ResultCache(tmp_path)
        cache.put(_job(), execute_engine(_job(), "ilp"))
        orphan = tmp_path / "ab" / ".tmp-dead.json"
        orphan.parent.mkdir(exist_ok=True)
        orphan.write_text("{}")
        os.utime(orphan, (1.0, 1.0))
        # tmp files do not count as removed entries, but they are gone
        assert cache.prune(older_than=3600) == 0
        assert not orphan.exists()

    def test_negative_age_rejected(self, tmp_path):
        import pytest

        with pytest.raises(ValueError):
            ResultCache(tmp_path).prune(older_than=-1)

    def test_missing_root_is_a_noop(self, tmp_path):
        assert ResultCache(tmp_path / "nope").prune(older_than=0) == 0


class TestConcurrentWriters:
    """The atomic temp-file + rename contract under real thread races."""

    def test_same_key_concurrent_puts_never_tear(self, tmp_path):
        import threading

        cache = ResultCache(tmp_path)
        job = _job()
        result = execute_engine(job, "ilp")
        writers = 8
        rounds = 25
        barrier = threading.Barrier(writers + 1)
        failures = []

        def writer():
            barrier.wait()
            for _ in range(rounds):
                if not cache.put(job, result):
                    failures.append("put returned False")

        def reader():
            barrier.wait()
            read_cache = ResultCache(tmp_path)  # separate counters
            seen = 0
            while seen < rounds:
                got = read_cache.get(job)
                if got is None:
                    continue  # not yet written at all: fine, retry
                seen += 1
                # a torn write would produce invalid JSON -> a miss, or a
                # mangled payload; both would break these invariants
                if got.verdict != result.verdict or got.holds != result.holds:
                    failures.append(f"torn read: {got}")

        threads = [threading.Thread(target=writer) for _ in range(writers)]
        threads.append(threading.Thread(target=reader))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert failures == []
        assert len(cache) == 1  # all writers converged on one entry
        final = cache.get(job)
        assert final is not None and final.verdict == result.verdict
        # no temp-file litter survived the rename dance
        assert list(tmp_path.glob("??/.tmp-*")) == []

    def test_interleaved_distinct_keys(self, tmp_path):
        import threading

        cache = ResultCache(tmp_path)
        jobs = {prop: _job(prop) for prop in ("usc", "csc")}
        results = {
            prop: execute_engine(job, "ilp") for prop, job in jobs.items()
        }
        barrier = threading.Barrier(2)

        def hammer(prop):
            barrier.wait()
            for _ in range(50):
                cache.put(jobs[prop], results[prop])
                got = cache.get(jobs[prop])
                assert got is not None
                assert got.property == prop
                assert got.holds == results[prop].holds

        threads = [
            threading.Thread(target=hammer, args=(prop,)) for prop in jobs
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert len(cache) == 2


class TestRefineDomains:
    """The refine-cert key domain."""

    _HASH = "a" * 64

    def _cert_body(self):
        return {"bound": {"place": "p", "sign": 1, "y_eq": {}, "y_ub": {}}}

    def test_cert_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get_refine_cert(self._HASH, "p", 1) is None
        assert cache.misses == 1
        assert cache.put_refine_cert(self._HASH, "p", 1, self._cert_body())
        body = cache.get_refine_cert(self._HASH, "p", 1)
        assert body == self._cert_body()
        assert cache.hits == 1

    def test_cert_key_separates_place_and_sign(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_refine_cert(self._HASH, "p", 1, self._cert_body())
        assert cache.get_refine_cert(self._HASH, "q", 1) is None
        assert cache.get_refine_cert(self._HASH, "p", -1) is None
        assert cache.get_refine_cert("b" * 64, "p", 1) is None

    def test_domains_never_collide_with_results(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = _job()
        cache.put(job, execute_engine(job, "sg"))
        cache.put_refine_cert(job.stg_hash, "p", 1, self._cert_body())
        assert len(cache) == 2
        assert cache.get(job) is not None

    def test_stats_by_domain(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = _job()
        cache.put(job, execute_engine(job, "sg"))
        cache.put_refine_cert(self._HASH, "p", 1, self._cert_body())
        by_domain = cache.stats()["by_domain"]
        assert by_domain == {"result": 1, "refine-cert": 1}

    def test_corrupt_cert_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_refine_cert(self._HASH, "p", 1, self._cert_body())
        key = cache.refine_cert_key_for(self._HASH, "p", 1)
        path = cache._path(key)
        path.write_text("{not json")
        assert cache.get_refine_cert(self._HASH, "p", 1) is None


class TestSchemaV4RefineEntries:
    """A cache directory written by schema v4, which also kept per-STG cut
    logs and keyed certificates by cut state: its refine entries are dead
    weight that reads as misses, still shows in ``stats`` and ages out."""

    _HASH = "c" * 64

    @staticmethod
    def _v4_key(material: str) -> str:
        import hashlib

        return hashlib.sha256(material.encode("utf-8")).hexdigest()

    def _populate(self, cache, stg_hash=_HASH, place="p"):
        bound = {"place": place, "sign": 1, "y_eq": {}, "y_ub": {}}
        cert = {
            "schema": 4,
            "domain": "refine-cert",
            "property": "refine-cert",
            "verdict": "certificate",
            "refine_version": 1,
            "stg_hash": stg_hash,
            "cut_hash": "h",
            "cuts_referenced": True,
            "body": {"bound": bound, "cuts_after": 1, "cuts_referenced": True},
        }
        cuts = {
            "schema": 4,
            "domain": "refine-cuts",
            "property": "refine-cuts",
            "verdict": "cuts",
            "stg_hash": stg_hash,
            "body": [{"version": 1, "kind": "trap", "places": ["p"], "marked": True}],
        }
        paths = [
            cache._path(
                self._v4_key(f"repro-refine-cert:v4\n{stg_hash}\n{place}\n1\nh\n")
            ),
            cache._path(self._v4_key(f"repro-refine-cuts:v4\n{stg_hash}\n")),
            # a v4 payload found under today's key must not be trusted either
            cache._path(cache.refine_cert_key_for(stg_hash, place, 1)),
        ]
        for path, payload in zip(paths, (cert, cuts, cert)):
            assert cache._write_atomic(path, payload)
        return paths

    def test_read_as_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._populate(cache)
        assert cache.get_refine_cert(self._HASH, "p", 1) is None
        assert cache.misses == 1 and cache.hits == 0

    def test_counted_by_stats(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._populate(cache)
        stats = cache.stats()
        assert stats["entries"] == 3
        assert stats["by_schema"] == {"4": 3}
        assert stats["by_domain"] == {"refine-cert": 2, "refine-cuts": 1}

    def test_pruned_by_age_like_any_entry(self, tmp_path):
        import os
        import time

        cache = ResultCache(tmp_path)
        paths = self._populate(cache)
        fresh = _job()
        cache.put(fresh, execute_engine(fresh, "sg"))
        old = time.time() - 3600
        for path in paths[:2]:
            os.utime(path, (old, old))
        assert cache.prune(older_than=60) == 2
        assert sorted(cache.stats()["by_domain"].items()) == [
            ("refine-cert", 1),
            ("result", 1),
        ]
        assert cache.prune(older_than=0, now=time.time() + 1) == 2
        assert len(cache) == 0

    def test_refinement_resolves_instead_of_replaying(self, tmp_path):
        pytest.importorskip("scipy")
        from repro.core.context import SolverContext
        from repro.refine import refine_prescreen
        from repro.unfolding import unfold

        stg = TABLE1_BENCHMARKS["CF-SYM-A-CSC"]()
        cache = ResultCache(tmp_path)
        net = stg.net
        for place in map(net.place_name, range(net.num_places)):
            self._populate(cache, stg.content_hash(), place)
        outcome = refine_prescreen(SolverContext(unfold(stg)), cert_store=cache)
        assert outcome.refuted
        assert outcome.cert_cache_hits == 0
