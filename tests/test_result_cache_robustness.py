"""ResultCache under adversity: corrupt entries, stale versions, races."""

import math
import pickle
import shutil
import threading
from pathlib import Path

import repro
import repro.experiments.cache as cache_module
from repro.core.config import CachingScheme, SimulationConfig, canonical_config
from repro.core.metrics import Results
from repro.experiments.cache import ResultCache, default_code_version, source_digest


def make_results(requests=100):
    return Results(
        scheme="GC",
        requests=requests,
        local_hits=40,
        global_hits=30,
        global_hits_tcg=15,
        server_requests=30,
        failures=0,
        access_latency=0.01,
        latency_stddev=0.0,
        power_data=1000.0,
        power_signature=100.0,
        power_beacon=10.0,
        power_per_gch=1100.0 / 30,
        validations=0,
        validation_refreshes=0,
        bypassed_searches=0,
        peer_searches=0,
        measured_time=60.0,
        sim_time=360.0,
    )


CONFIG = SimulationConfig(scheme=CachingScheme.GC, seed=3)


def test_truncated_entry_is_a_miss_and_recoverable(tmp_path):
    cache = ResultCache(tmp_path)
    path = cache.put(CONFIG, make_results())
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    assert cache.get(CONFIG) is None
    assert cache.misses == 1
    # A fresh put heals the entry.
    cache.put(CONFIG, make_results(requests=7))
    restored = cache.get(CONFIG)
    assert restored is not None and restored.requests == 7


def test_garbage_bytes_are_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    cache.path_for(CONFIG).write_bytes(b"not a pickle at all")
    assert cache.get(CONFIG) is None
    assert cache.misses == 1


def test_code_version_mismatch_keys_apart(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)

    def version(name):
        monkeypatch.setattr(cache_module, "default_code_version", lambda: name)

    version("repro-0.9/cache-1")
    old_key = cache.key(CONFIG)
    cache.put(CONFIG, make_results())
    version("repro-1.0/cache-1")
    assert cache.key(CONFIG) != old_key
    assert cache.get(CONFIG) is None  # old entry invisible under the new key
    version("repro-0.9/cache-1")
    assert cache.get(CONFIG) is not None


def test_default_code_version_follows_the_source(tmp_path):
    """One changed byte of the package's source is a new code version."""
    package = Path(repro.__file__).parent
    same, copy, edited = (tmp_path / name for name in ("same", "copy", "edited"))
    for root in (same, copy, edited):
        shutil.copytree(package / "sim", root)
    with (edited / "stats.py").open("ab") as handle:
        handle.write(b"#")
    assert source_digest(same) == source_digest(copy) != source_digest(edited)
    assert default_code_version().endswith("/src-" + source_digest(package)[:16])


def test_payload_for_wrong_config_is_rejected(tmp_path):
    """A hash-collision-shaped entry (wrong embedded config) is a miss."""
    cache = ResultCache(tmp_path)
    other = CONFIG.replace(seed=99)
    payload = {"config": canonical_config(other), "results": make_results()}
    with cache.path_for(CONFIG).open("wb") as handle:
        pickle.dump(payload, handle)
    assert cache.get(CONFIG) is None
    assert cache.misses == 1


def test_non_dict_payload_is_rejected(tmp_path):
    cache = ResultCache(tmp_path)
    with cache.path_for(CONFIG).open("wb") as handle:
        pickle.dump(["wrong", "shape"], handle)
    assert cache.get(CONFIG) is None


def test_concurrent_writers_same_key_leave_one_valid_entry(tmp_path):
    """Threaded same-pid writers must not tear entries or collide on temps."""
    cache = ResultCache(tmp_path)
    errors = []
    barrier = threading.Barrier(8)

    def writer(tag):
        try:
            barrier.wait()
            for _ in range(10):
                cache.put(CONFIG, make_results(requests=tag))
        except Exception as error:  # pragma: no cover - the assertion target
            errors.append(error)

    threads = [threading.Thread(target=writer, args=(tag,)) for tag in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []
    final = cache.get(CONFIG)
    assert final is not None  # never torn: some writer's entry, intact
    assert final.requests in range(8)
    assert list(tmp_path.glob("*.tmp*")) == []  # no temp litter
    assert len(cache) == 1


def test_concurrent_writers_distinct_keys(tmp_path):
    cache = ResultCache(tmp_path)
    configs = [CONFIG.replace(seed=seed) for seed in range(6)]
    threads = [
        threading.Thread(target=cache.put, args=(c, make_results(requests=i)))
        for i, c in enumerate(configs)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for i, config in enumerate(configs):
        entry = cache.get(config)
        assert entry is not None and entry.requests == i
    assert len(cache) == len(configs)


def test_power_per_gch_survives_pickle_round_trip(tmp_path):
    """Infinities in Results (no global hits) round-trip through the cache."""
    cache = ResultCache(tmp_path)
    results = make_results()
    results.global_hits = 0
    results.power_per_gch = math.inf
    cache.put(CONFIG, results)
    restored = cache.get(CONFIG)
    assert restored is not None and math.isinf(restored.power_per_gch)
