"""One order-preserving process pool for every fan-out in the package.

Collection sweeps (:func:`repro.harness.parallel.map_scenario_batches`),
the validation protocols (:mod:`repro.core.validation`) and ensemble
member fits (:class:`repro.core.ensemble.EnsemblePredictor`) all cut
independent work into chunks with :func:`split_chunks` and run them with
:func:`map_chunks`.  Two rules keep ``workers=N`` bit-identical to
``workers=1``:

* **Per-item RNGs.**  :func:`spawn_streams` derives one child generator per
  scenario, repetition or member from the caller's root generator, keyed by
  index, exactly as ``Generator.spawn`` does (``np.random.SeedSequence``
  spawning).  Draws therefore depend only on *which* item runs, never on
  how many ran before it or on which process runs it.  For the package's
  own roots it derives every child's seed words in one vectorized pass
  rather than building one ``SeedSequence`` per child; the streams are the
  same bits either way.
* **Order-preserving results.**  :func:`map_chunks` returns one result per
  chunk, in chunk order, whatever order the workers finish in, so callers
  merge results and counters in the same order as a serial run.

Each worker receives ``fn`` and a pickled copy of ``shared`` (an engine
with any warm cache, or a dataset and model recipe) once, through the pool
initializer.  Whatever a chunk records in process-wide state inside a
worker dies with the worker, so chunk functions return what their caller
must merge.  When the caller's tracer is recording, each pooled chunk runs
under one ``pool.chunk`` span parented, across the process boundary, to
the caller's current span; the chunk's spans ride home with its result, or
go straight to the caller's collector when the caller streams.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence
from numpy.random.bit_generator import ISpawnableSeedSequence

from .obs.stream import SpanSender, StreamingTracer
from .obs.trace import Tracer, current_span, get_tracer, set_tracer

__all__ = ["CHUNKS_PER_WORKER", "map_chunks", "spawn_streams", "split_chunks"]

#: Chunks per worker process: enough that one slow chunk does not leave
#: the other workers idle at the end of a map, few enough that the
#: per-chunk cost (pickling, one span) stays small.
CHUNKS_PER_WORKER = 4


def spawn_streams(
    rng: np.random.Generator, n: int
) -> list[np.random.Generator]:
    """``n`` independent child generators derived from ``rng``.

    Children come from the generator's underlying ``SeedSequence`` (its
    spawn counter, not its draw position), so the i-th child is the same
    whether or not any values were drawn from ``rng`` in between — the
    property that makes noise draws independent of loop order.  Every
    child, and ``rng`` afterwards, equals what ``rng.spawn(n)`` gives.

    A ``PCG64`` root over a pool-size-4 ``SeedSequence`` with int or
    int-sequence entropy — what ``np.random.default_rng`` builds — takes
    :func:`_spawn_pcg64`'s vectorized path: each child's ``seed_seq`` is
    then a :class:`_SpawnedSeed`, not a ``SeedSequence`` instance, though
    it spawns real ones.  Any other root goes through ``rng.spawn(n)``.
    Falls back to seeding a fresh ``SeedSequence`` from one draw for
    generators whose bit generator was built without a seed sequence.
    """
    if n < 0:
        raise ValueError("cannot spawn a negative number of streams")
    if n == 0:
        return []
    children = _spawn_pcg64(rng, n)
    if children is not None:
        return children
    try:
        return list(rng.spawn(n))
    except TypeError:
        root = np.random.SeedSequence(int(rng.integers(2**63)))
        return [np.random.default_rng(child) for child in root.spawn(n)]


# ``SeedSequence``'s hash and mix constants (numpy/random/bit_generator.pyx).
# The hash constant a word is mixed with depends only on the word's
# position, never on the data, which is what lets one pass serve n children.
_POOL = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _spawn_pcg64(
    rng: np.random.Generator, n: int
) -> list[np.random.Generator] | None:
    """``rng.spawn(n)`` for the package's roots, or ``None`` for any other.

    ``SeedSequence`` spawning gives child i the entropy words of the run
    entropy (zero-padded to the pool size), the parent's spawn key and
    ``i``, so all n children share the mixing of everything but that last
    word; :func:`_child_seed_words` mixes the shared prefix once and the n
    indices together.  The root's ``n_children_spawned`` is read-only, so
    the root gets a fresh ``SeedSequence`` with the counter advanced
    through its bit generator's pickle pair, its draw state untouched.
    Numpy without that pair (before 2.0) takes the ``rng.spawn`` path.
    """
    if type(rng) is not Generator:
        return None
    bits = rng.bit_generator
    seq = getattr(bits, "seed_seq", None)  # public since numpy 1.25
    if (
        type(bits) is not PCG64
        or type(seq) is not SeedSequence
        or seq.pool_size != _POOL
    ):
        return None
    first = seq.n_children_spawned
    run_words = _uint32_words(seq.entropy)
    key_words = _uint32_words(seq.spawn_key)
    if run_words is None or key_words is None or first + n > 2**32:
        return None
    pair = bits.__reduce__()[2]  # (draw state, seed sequence) since numpy 2.0
    if not (isinstance(pair, tuple) and len(pair) == 2 and pair[1] is seq):
        return None
    words = _child_seed_words(run_words, key_words, first, n)
    entropy, key = seq.entropy, seq.spawn_key
    children = [
        Generator(PCG64(_SpawnedSeed(entropy, key + (index,), row)))
        for index, row in zip(range(first, first + n), words)
    ]
    bits.__setstate__((
        pair[0],
        SeedSequence(
            entropy, spawn_key=key, pool_size=_POOL, n_children_spawned=first + n
        ),
    ))
    return children


def _uint32_words(value) -> list[int] | None:
    """``value``'s little-endian uint32 words as ``SeedSequence`` reads it.

    An int gives its words (``[0]`` for zero); a list or tuple of ints the
    concatenation of theirs.  ``None`` for anything else, which numpy may
    still accept (a nested sequence, an array), so the caller falls back.
    """
    if isinstance(value, (int, np.integer)):
        value = int(value)
        if value < 0:
            return None
        words = [value & _MASK32]
        while value := value >> 32:
            words.append(value & _MASK32)
        return words
    if not isinstance(value, (list, tuple)):
        return None
    words = []
    for item in value:
        part = _uint32_words(item) if isinstance(item, (int, np.integer)) else None
        if part is None:
            return None
        words += part
    return words


def _hashmix(value: int, hash_const: int) -> tuple[int, int]:
    """``SeedSequence``'s ``hashmix`` and the hash constant it leaves."""
    value ^= hash_const
    hash_const = (hash_const * _MULT_A) & _MASK32
    value = (value * hash_const) & _MASK32
    return value ^ (value >> 16), hash_const


def _mix(x: int, y: int) -> int:
    """``SeedSequence``'s ``mix`` of a pool word and a hashed word."""
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


def _hash_constants(
    hash_const: int, mult: int, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """The xor and multiplier of ``count`` hash steps from ``hash_const``.

    A step xors its word with the hash constant, advances the constant
    by ``mult`` and multiplies the word by the new constant.
    """
    xors, mults = [], []
    for _ in range(count):
        xors.append(hash_const)
        hash_const = (hash_const * mult) & _MASK32
        mults.append(hash_const)
    return np.array(xors, dtype=np.uint32), np.array(mults, dtype=np.uint32)


#: ``generate_state``'s eight hash steps, the same for every child.
_STATE_XOR, _STATE_MULT = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)


def _child_seed_words(
    run_words: list[int], key_words: list[int], first: int, n: int
) -> np.ndarray:
    """``generate_state(4, np.uint64)`` of children ``first .. first + n - 1``.

    Row i equals ``SeedSequence(entropy, spawn_key=key + (first + i,))
    .generate_state(4, np.uint64)``.  ``mix_entropy`` over the padded run
    entropy and the parent key runs once in Python ints; the child index,
    always a word past the pool, is then mixed into each pool word, and the
    pool hashed into eight state words, for all rows at once in wrapping
    uint32 arithmetic.
    """
    prefix = run_words + [0] * (_POOL - len(run_words)) + key_words
    hash_const = _INIT_A
    pool = []
    for word in prefix[:_POOL]:
        word, hash_const = _hashmix(word, hash_const)
        pool.append(word)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                word, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], word)
    for word in prefix[_POOL:]:
        for dst in range(_POOL):
            hashed, hash_const = _hashmix(word, hash_const)
            pool[dst] = _mix(pool[dst], hashed)
    xors, mults = _hash_constants(hash_const, _MULT_A, _POOL)
    hashed = (np.arange(first, first + n, dtype=np.uint32)[:, None] ^ xors) * mults
    hashed ^= hashed >> 16
    scaled_pool = np.array([(_MIX_MULT_L * w) & _MASK32 for w in pool], np.uint32)
    mixed = scaled_pool - np.uint32(_MIX_MULT_R) * hashed
    mixed ^= mixed >> 16
    state = np.tile(mixed, 2)
    state ^= _STATE_XOR
    state *= _STATE_MULT
    state ^= state >> 16
    # Pairs of uint32 words read as little-endian uint64, as numpy does.
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


class _SpawnedSeed(ISpawnableSeedSequence):
    """A spawned child's seed sequence whose ``PCG64`` seed words are known.

    Holds the child's entropy, spawn key and the
    ``generate_state(4, np.uint64)`` words :func:`_child_seed_words`
    derived, which is all a ``PCG64`` asks for at construction.  ``spawn``
    and every other ``generate_state`` request go to the real
    ``SeedSequence`` with the same entropy and key, built on first need,
    so grandchildren are numpy's own.
    """

    def __init__(self, entropy, spawn_key: tuple, words: np.ndarray):
        self.entropy = entropy
        self.spawn_key = spawn_key
        self._words = words
        self._seq: SeedSequence | None = None

    def _real(self) -> SeedSequence:
        if self._seq is None:
            self._seq = SeedSequence(
                self.entropy, spawn_key=self.spawn_key, pool_size=_POOL
            )
        return self._seq

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words == _POOL and dtype is np.uint64:
            return self._words.copy()
        return self._real().generate_state(n_words, dtype)

    def spawn(self, n_children: int) -> list[SeedSequence]:
        return self._real().spawn(n_children)


def split_chunks(items: Sequence, workers: int) -> list[list]:
    """``items`` cut into contiguous chunks for :func:`map_chunks`.

    One worker gets a single chunk holding every item; ``workers=N`` gets
    at most ``N * CHUNKS_PER_WORKER`` chunks of near-equal size.  A caller
    holding more than one chunk therefore knows they run in worker
    processes.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    items = list(items)
    if not items:
        return []
    n_chunks = 1 if workers == 1 else min(len(items), workers * CHUNKS_PER_WORKER)
    size = -(-len(items) // n_chunks)
    return [items[start : start + size] for start in range(0, len(items), size)]


def map_chunks(fn: Callable, shared, chunks: Sequence, *, workers: int) -> list:
    """``[fn(shared, chunk) for chunk in chunks]``, spread over processes.

    ``workers=1``, or at most one chunk, runs inline in this process on
    ``shared`` itself.  Otherwise a pool of ``min(workers, len(chunks))``
    processes runs the chunks and the results come back in chunk order.
    ``fn`` must be a module-level (picklable) function.
    """
    chunks = list(chunks)
    if workers == 1 or len(chunks) <= 1:
        return [fn(shared, chunk) for chunk in chunks]
    tracer = get_tracer()
    trace = None
    if tracer.enabled:
        endpoint = (
            tracer.sender.endpoint if isinstance(tracer, StreamingTracer) else None
        )
        trace = (f"{tracer.service}-worker", endpoint)
    parent = current_span()
    context = (parent.trace_id, parent.span_id) if parent is not None else ("", None)
    results = []
    # The platform's default start method (fork on Linux): a spawned
    # worker re-imports numpy and the package, which costs more than the
    # work of a small map, and ``evaluate_models`` maps once per model.
    with ProcessPoolExecutor(
        max_workers=min(workers, len(chunks)),
        initializer=_init_worker,
        initargs=(fn, shared, context, trace),
    ) as pool:
        for value, spans in pool.map(_run_chunk, chunks):
            if spans:
                tracer.ingest(spans)
            results.append(value)
    return results


#: Worker-process state, set once per worker by the pool initializer:
#: ``(fn, shared, (trace_id, parent_span_id))``.
_WORKER: tuple | None = None


def _init_worker(fn: Callable, shared, context: tuple, trace: tuple | None) -> None:
    """Install the map's function and state, and a tracer if the caller traces.

    A recording caller gets recording workers under the ``<service>-worker``
    service: streaming ones when the caller streams to a collector (they
    send to the same endpoint), buffering ones otherwise.  The fresh tracer
    also drops any spans a forked worker inherited from the caller's.
    """
    global _WORKER
    _WORKER = (fn, shared, context)
    if trace is None:
        return
    service, endpoint = trace
    if endpoint is None:
        set_tracer(Tracer(service=service))
    else:
        set_tracer(
            StreamingTracer(
                SpanSender(endpoint, resource={"service": service, "pid": os.getpid()})
            )
        )


def _run_chunk(chunk):
    fn, shared, (trace_id, parent_id) = _WORKER
    tracer = get_tracer()
    with tracer.child_span(
        "pool.chunk",
        trace_id=trace_id,
        parent_id=parent_id,
        tasks=len(chunk),
        pid=os.getpid(),
    ):
        value = fn(shared, chunk)
    return value, _drain_spans(tracer)


def _drain_spans(tracer) -> list[dict] | None:
    """Serialize and clear this worker's recorded spans for the caller.

    Streaming workers return ``None``: their spans already went to the
    collector, and shipping them twice would duplicate every span.
    """
    if not tracer.enabled:
        return None
    if isinstance(tracer, StreamingTracer):
        # Push the chunk's spans through now: the pool may tear this
        # process down right after the result returns, and the sender's
        # daemon thread would die holding the tail batch.
        tracer.flush()
        return None
    resource = {"service": tracer.service, "pid": os.getpid()}
    records = []
    for span in tracer.spans():
        record = tracer.serialize(span)
        record.setdefault("resource", resource)
        records.append(record)
    tracer.reset()
    return records
