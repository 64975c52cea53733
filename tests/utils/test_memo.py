"""The bounded LRU memo shared by the compile and runtime layers."""

from __future__ import annotations

import sys
import threading

from repro.utils.memo import LRUMemo


class TestLRUMemo:
    def test_hits_refresh_recency_and_eviction_pops_the_oldest(self):
        memo = LRUMemo(3)
        for key in "abc":
            memo.put(key, key.upper())
        assert memo.get("a") == "A"  # a is now the most recent
        memo.put("d", "D")  # evicts b, the least recently used
        assert "b" not in memo and len(memo) == 3
        assert [memo.get(key) for key in "acd"] == ["A", "C", "D"]
        assert memo.get("b", "missing") == "missing"

    def test_put_replaces_without_growing(self):
        memo = LRUMemo(2)
        memo.put("a", 1)
        memo.put("a", 2)
        memo.put("b", 3)
        assert len(memo) == 2 and memo.get("a") == 2

    def test_concurrent_use_loses_nothing_and_stays_bounded(self):
        # More threads than cores, switching as often as the interpreter
        # allows: a racing eviction would raise, or hand a key another
        # key's value.
        memo = LRUMemo(4)
        errors: list[BaseException] = []

        def work(seed: int) -> None:
            try:
                for step in range(3000):
                    key = (seed * 7 + step) % 11
                    value = memo.get(key)
                    if value is None:
                        memo.put(key, ("value", key))
                    elif value != ("value", key):
                        raise AssertionError(f"key {key} served {value!r}")
                    if len(memo) > memo.cap:
                        raise AssertionError(f"{len(memo)} entries over a cap of 4")
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(memo) <= 4
