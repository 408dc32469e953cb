"""Unit tests for the virtual-time compaction token bucket."""

import pytest

from repro.lsm.ratelimit import NS_PER_SEC, CompactionRateLimiter


def test_constructor_validates_rates():
    with pytest.raises(ValueError):
        CompactionRateLimiter(0)
    with pytest.raises(ValueError):
        CompactionRateLimiter(-5)
    with pytest.raises(ValueError):
        CompactionRateLimiter(100, burst_bytes=-1)


def test_default_burst_is_one_second_of_tokens():
    rl = CompactionRateLimiter(1000)
    assert rl.burst_bytes == 1000
    assert rl.tokens_at(0) == 1000


def test_admit_within_burst_starts_at_ready():
    rl = CompactionRateLimiter(1000, burst_bytes=500)
    start = rl.admit(ready=100, nbytes=300)
    assert start == 100
    assert rl.admitted_jobs == 1
    assert rl.admitted_bytes == 300
    assert rl.throttled_jobs == 0
    assert rl.tokens_at(100) == 200


def test_admit_beyond_tokens_pushes_start_out():
    rl = CompactionRateLimiter(1000, burst_bytes=1000)
    rl.admit(ready=0, nbytes=900)  # leave 100 tokens
    # a 600-byte job must wait for 500 more bytes at 1000 B/s
    start = rl.admit(ready=0, nbytes=600)
    assert start == NS_PER_SEC // 2
    assert rl.throttled_jobs == 1
    assert rl.throttle_ns == start
    # the debit happened at the granted start: bucket is empty there
    assert rl.tokens_at(start) == 0


def test_job_larger_than_burst_overdraws_after_full_refill():
    # the bucket clamps at burst, so a job bigger than the whole bucket
    # waits for the *deficit* to refill, then borrows the rest — the
    # negative balance pushes later jobs out instead of stalling this
    # one forever
    rl = CompactionRateLimiter(1000, burst_bytes=100)
    start = rl.admit(ready=0, nbytes=600)
    assert start == NS_PER_SEC // 2
    assert rl.tokens_at(start) == -500
    follow = rl.peek(ready=start, nbytes=100)
    assert follow > start


def test_admit_ceil_divides_so_bucket_never_goes_short():
    # 3 B/s with a 1-byte deficit: wait must round UP to a whole token
    rl = CompactionRateLimiter(3, burst_bytes=1)
    rl.admit(ready=0, nbytes=1)  # drain the bucket
    start = rl.admit(ready=0, nbytes=1)
    # 1 byte at 3 B/s = 333333333.33.. ns, ceil -> 333333334
    assert start == (1 * NS_PER_SEC + 2) // 3
    assert rl.tokens_at(start) >= 0


def test_refill_carries_fractional_remainder():
    rl = CompactionRateLimiter(3, burst_bytes=10)
    rl.admit(ready=0, nbytes=10)  # empty at t=0
    # refill in steps too small to mint whole tokens must not lose the
    # fraction: after a full second in 10 uneven steps the bucket holds
    # exactly rate * 1s tokens
    t = 0
    for step in (1, 2, 3, 4, 5, 6, 7, 8, 9, 10):
        t += step * NS_PER_SEC // 55
    rl.tokens_at(t)
    assert rl.tokens_at(NS_PER_SEC) == 3


def test_refill_clamps_at_burst():
    rl = CompactionRateLimiter(1000, burst_bytes=50)
    rl.admit(ready=0, nbytes=50)
    assert rl.tokens_at(10 * NS_PER_SEC) == 50


def test_urgent_admit_starts_at_ready_and_overdraws():
    rl = CompactionRateLimiter(1000, burst_bytes=100)
    start = rl.admit(ready=0, nbytes=400, urgent=True)
    assert start == 0
    assert rl.bypassed_jobs == 1
    assert rl.bypassed_bytes == 400
    # the overdraft is real: the bucket went negative and pushes
    # later non-urgent work further out than an empty bucket would
    assert rl.tokens_at(0) == -300
    follow = rl.admit(ready=0, nbytes=100)
    assert follow == (400 * NS_PER_SEC + 999) // 1000


def test_urgent_with_enough_tokens_is_not_a_bypass():
    rl = CompactionRateLimiter(1000, burst_bytes=500)
    rl.admit(ready=0, nbytes=200, urgent=True)
    assert rl.bypassed_jobs == 0


def test_peek_matches_admit_without_consuming():
    rl = CompactionRateLimiter(1000, burst_bytes=100)
    rl.admit(ready=0, nbytes=100)  # empty the bucket
    first = rl.peek(ready=0, nbytes=50)
    second = rl.peek(ready=0, nbytes=50)
    assert first == second  # peek is idempotent
    granted = rl.admit(ready=0, nbytes=50)
    assert granted == first
    assert rl.peek(ready=0, nbytes=50, urgent=True) == 0


def test_note_held_counts_pressure():
    rl = CompactionRateLimiter(1000)
    rl.note_held()
    rl.note_held()
    assert rl.held_jobs == 2
    # hold-backs never touch admission accounting
    assert rl.admitted_jobs == 0 and rl.throttled_jobs == 0


def test_negative_bytes_rejected():
    rl = CompactionRateLimiter(1000)
    with pytest.raises(ValueError):
        rl.admit(0, -1)
    with pytest.raises(ValueError):
        rl.peek(0, -1)


def test_snapshot_has_the_stats_contract_keys():
    rl = CompactionRateLimiter(1000, burst_bytes=100)
    rl.admit(0, 100)
    rl.admit(0, 50)
    rl.note_held()
    snap = rl.snapshot()
    assert snap["bytes_per_sec"] == 1000
    assert snap["burst_bytes"] == 100
    assert snap["admitted_jobs"] == 2
    assert snap["admitted_bytes"] == 150
    assert snap["throttled_jobs"] == 1
    assert snap["throttle_ns"] > 0
    assert snap["held_jobs"] == 1
    assert snap["bypassed_jobs"] == 0


def test_sequence_is_deterministic():
    def drive(rl):
        out = []
        t = 0
        for i in range(50):
            t += 7_000_000 * (i % 5 + 1)
            out.append(rl.admit(t, 1000 * (i % 7), urgent=(i % 11 == 0)))
        return out

    a = drive(CompactionRateLimiter(100_000, burst_bytes=10_000))
    b = drive(CompactionRateLimiter(100_000, burst_bytes=10_000))
    assert a == b
