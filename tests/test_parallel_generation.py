"""Corpus generation computes candidates in forked workers and takes them in
index order: the pairs, the errors and the processes left behind must not
depend on how many processes computed them."""

import dataclasses
import gc
import os
import random

import pytest

from iotsqlbench import workers
from iotsqlbench.store import ColumnDef, Database, TableSchema, define_schema
from iotsqlbench.templates import CorpusConfig, ExhaustedResampling, generate, generate_corpus

REAL_RNG = generate._candidate_rng


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


def fields(pairs):
    # every field, the derived ones (temporal, constructs) included
    return [dataclasses.asdict(p) for p in pairs]


def generated(db, config, processes, count):
    processes(count)
    pairs = generate_corpus(db, config)
    assert no_child_left()
    return fields(pairs)


class IndexedRandom(random.Random):
    """The RNG of candidate ``index``."""

    def __init__(self, index):
        super().__init__()
        self.index = index


def indexed_rng(seed, k):
    rng = IndexedRandom(k)
    rng.setstate(REAL_RNG(seed, k).getstate())
    return rng


def fail_at(monkeypatch, index, fail):
    """``fail()`` is called where candidate ``index`` would be instantiated,
    in whichever process computes it."""
    real_instantiate = generate.instantiate

    def instantiate(template, db, rng, binder=None):
        if rng.index == index:
            fail()
        return real_instantiate(template, db, rng, binder=binder)

    monkeypatch.setattr(generate, "_candidate_rng", indexed_rng)
    monkeypatch.setattr(generate, "instantiate", instantiate)


@pytest.mark.parametrize("seed", range(16))
def test_one_and_two_processes_make_the_same_pairs(synth_db, processes, seed):
    config = CorpusConfig(n_pairs=40, seed=seed)
    assert generated(synth_db, config, processes, 2) == generated(synth_db, config, processes, 1)


def test_forced_temporal_pool_gives_the_same_pairs(synth_db, processes):
    config = CorpusConfig(n_pairs=120, seed=4, temporal_floor=0.9)
    one = generated(synth_db, config, processes, 1)
    assert generated(synth_db, config, processes, 2) == one
    assert generated(synth_db, config, processes, 4) == one  # more processes than CPUs
    # without a floor nothing is forced; the same seed then gives other pairs
    unforced = generated(synth_db, dataclasses.replace(config, temporal_floor=0.0), processes, 1)
    assert one != unforced
    assert sum(p["temporal"] for p in one) >= 108


@pytest.mark.parametrize("count", [1, 2])
@pytest.mark.parametrize("index", [6, 7])
def test_an_error_raises_at_its_candidate(synth_db, processes, monkeypatch, count, index):
    def fail():
        raise RuntimeError(f"candidate {index}")

    fail_at(monkeypatch, index, fail)
    processes(count)
    with pytest.raises(RuntimeError, match=f"^candidate {index}$"):
        generate_corpus(synth_db, CorpusConfig(n_pairs=40, seed=3))
    assert no_child_left()


@pytest.mark.parametrize("count", [1, 2])
def test_an_error_past_the_stop_is_never_raised(synth_db, processes, monkeypatch, count):
    config = CorpusConfig(n_pairs=40, seed=3)
    reached = []
    real_instantiate = generate.instantiate
    monkeypatch.setattr(generate, "_candidate_rng", indexed_rng)

    def spy(template, db, rng, binder=None):
        reached.append(rng.index)
        return real_instantiate(template, db, rng, binder=binder)

    monkeypatch.setattr(generate, "instantiate", spy)
    processes(1)
    expected = fields(generate_corpus(synth_db, config))
    stop = max(reached)

    def fail():
        raise RuntimeError("past the stop")

    fail_at(monkeypatch, stop + 1, fail)
    assert generated(synth_db, config, processes, count) == expected


def test_a_worker_that_dies_changes_nothing(synth_db, processes, monkeypatch):
    config = CorpusConfig(n_pairs=40, seed=3)
    expected = generated(synth_db, config, processes, 1)
    parent = os.getpid()

    def die_in_worker():
        if os.getpid() != parent:
            os._exit(3)

    received = []
    real_receive = workers.Worker.receive

    def receive(worker):
        received.append(real_receive(worker))
        return received[-1]

    monkeypatch.setattr(workers.Worker, "receive", receive)
    fail_at(monkeypatch, 5, die_in_worker)  # odd: in the worker's share
    assert generated(synth_db, config, processes, 2) == expected
    assert received[0] is None  # the first batch came back from no worker


@pytest.mark.parametrize("count", [1, 2])
def test_exhausted_resampling_is_unchanged(processes, count):
    schema = define_schema([TableSchema(name="t", columns=(ColumnDef("a", "text"),))])
    db = Database(schema)
    db.load_records("t", [("only",)])
    processes(count)
    with pytest.raises(ExhaustedResampling) as exc:
        generate_corpus(db, CorpusConfig(n_pairs=300, seed=1, max_attempt_factor=1))
    assert no_child_left()
    processes(1)
    with pytest.raises(ExhaustedResampling) as serial:
        generate_corpus(db, CorpusConfig(n_pairs=300, seed=1, max_attempt_factor=1))
    assert str(exc.value) == str(serial.value)


@pytest.mark.parametrize("n_pairs, forked", [(1, 0), (2, 1), (40, 3)])
def test_no_more_workers_than_pairs_minus_one(synth_db, processes, monkeypatch, n_pairs, forked):
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    processes(4)
    assert len(generate_corpus(synth_db, CorpusConfig(n_pairs=n_pairs, seed=3))) == n_pairs
    assert len(forks) == forked
    assert no_child_left()


@pytest.mark.parametrize("count", [1, 2])
def test_generation_makes_no_reference_cycle(synth_db, processes, count):
    # a pool pauses the collector, which is safe only while no cycle is made
    processes(count)
    gc.collect()
    gc.disable()
    try:
        generate_corpus(synth_db, CorpusConfig(n_pairs=60, seed=3))
        assert gc.collect() == 0
    finally:
        gc.enable()


class Refused(Exception):
    pass


@pytest.mark.parametrize("collecting", [True, False])
def test_a_pool_pauses_the_collector_for_its_life_only(processes, monkeypatch, collecting):
    processes(2)
    (gc.enable if collecting else gc.disable)()
    try:
        with workers.Pool(lambda k: (k, gc.isenabled()), 2) as pool:
            assert not gc.isenabled()
            assert pool.compute([0, 1]) == [(0, False), (1, False)]  # the worker's pause too
        assert gc.isenabled() == collecting
        with pytest.raises(Refused), workers.Pool(abs, 2):
            raise Refused
        assert gc.isenabled() == collecting

        def refused(*args):
            raise Refused

        monkeypatch.setattr(workers, "Worker", refused)
        with pytest.raises(Refused):
            workers.Pool(abs, 2)
        assert gc.isenabled() == collecting
    finally:
        gc.enable()
    assert no_child_left()
