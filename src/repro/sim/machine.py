"""Top-level simulation driver.

:func:`simulate` assembles a machine -- caches, predictor, fetch path,
pipeline model -- around a program and runs it to completion, returning
a :class:`~repro.sim.results.SimResult`.  Passing a
:class:`~repro.sim.config.CodePackConfig` switches the I-miss path from
native critical-word-first refill to the CodePack decompression engine;
everything else (including the functional execution) is identical,
which is exactly the paper's experimental control.

Callers that sweep many configurations over one program should pass
``static=`` (from :func:`repro.sim.cpu.predecode`) and ``image=`` (from
:func:`repro.codepack.compress_program`) to amortise predecoding and
compression across runs.
"""

from repro.codepack.compressor import compress_program
from repro.sim.blockexec import run_inorder_blocks
from repro.sim.branch import make_predictor
from repro.sim.cache import Cache
from repro.sim.codepack_engine import CodePackEngine
from repro.sim.cpu import FunctionalCore, SimulationError, predecode
from repro.sim.fetch import FetchUnit, NativeMissPath
from repro.sim.inorder import run_inorder
from repro.sim.memory import MemoryChannel
from repro.sim.ooo import run_ooo
from repro.sim.replay import (
    Trace,
    TraceError,
    program_digest,
    record_trace,
    replay_trace,
)
from repro.sim.results import SimResult

DEFAULT_MAX_INSTRUCTIONS = 5_000_000


def describe_mode(codepack):
    """Short label for a CodePack configuration (None = native)."""
    if codepack is None:
        return "native"
    parts = ["codepack"]
    if codepack.perfect_index:
        parts.append("perfect-index")
    elif codepack.index_cache is not None:
        parts.append("ic%dx%d" % (codepack.index_cache.lines,
                                  codepack.index_cache.entries_per_line))
    if codepack.decode_rate != 1:
        parts.append("dec%d" % codepack.decode_rate)
    if not codepack.output_buffer:
        parts.append("nobuf")
    return "+".join(parts)


def simulate(program, arch, codepack=None, image=None, static=None,
             max_instructions=DEFAULT_MAX_INSTRUCTIONS, mode=None,
             critical_word_first=True, miss_path=None, pc_index=None,
             trace=None, native_prefetch=False, batched=None,
             replay=None, trace_cache=None):
    """Run *program* on *arch*; returns a :class:`SimResult`.

    * ``codepack`` -- ``None`` for native code, else a
      :class:`~repro.sim.config.CodePackConfig`.
    * ``image`` -- pre-compressed :class:`CodePackImage` (compressed on
      demand when omitted and needed).
    * ``static`` -- pre-decoded instruction list, for sweep callers.
    * ``critical_word_first`` -- native-path refill policy (ablation
      knob; the paper's baseline memory system always has it on).
    * ``miss_path`` -- a custom I-miss path (an object with a
      ``miss(addr, now) -> LineFill`` method, e.g. the CCRP or
      software-decompression engines); overrides ``codepack``.
    * ``batched`` -- use the basic-block in-order model
      (:mod:`repro.sim.blockexec`).  ``None`` (the default) selects it
      automatically for in-order machines on the fixed-width SS32
      layout; ``False`` forces the per-instruction reference model;
      ``True`` demands the batched model and raises if the
      configuration cannot use it.  Both models are cycle-exact
      against each other.
    * ``replay`` -- functional/timing split (:mod:`repro.sim.replay`).
      ``True`` records (or loads from ``trace_cache``) a functional
      trace and runs the timing-only replay engine; a
      :class:`~repro.sim.replay.Trace` replays that trace directly.
      ``None``/``False`` (the default) executes normally.  Replay is
      cycle-exact against the execute-driven models; it pays off when
      one trace is reused across many timing configurations, which is
      why it is opt-in here and default-on in the sweep.
    * ``trace_cache`` -- a :class:`~repro.sim.replay.TraceCache`;
      consulted (and populated) when ``replay=True``.

    Replay prices this one cell on the scalar stream kernel; batch cell
    pricing lives in :func:`repro.sim.vecreplay.price_grid`, which
    callers like the Workbench use directly.
    """
    icache = Cache(arch.icache)
    dcache = Cache(arch.dcache)
    channel = MemoryChannel(arch.memory, shared=arch.shared_memory_bus)

    engine = None
    if miss_path is not None:
        engine = miss_path
    elif codepack is not None:
        if image is None:
            image = compress_program(program)
        engine = CodePackEngine(image, channel, codepack,
                                line_bytes=arch.icache.line_bytes)
        miss_path = engine
    else:
        miss_path = NativeMissPath(channel, arch.icache.line_bytes,
                                   critical_word_first=critical_word_first,
                                   prefetch_next=native_prefetch)
    fetch_unit = FetchUnit(icache, miss_path, trace=trace)

    if replay:
        if pc_index is not None:
            raise ValueError("replay requires the fixed-width SS32 layout "
                             "(pc_index is None)")
        if static is None:
            static = predecode(program)
        if isinstance(replay, Trace):
            recorded = replay
            if recorded.program_sha != program_digest(program):
                raise TraceError(
                    "trace was recorded for a different program")
        elif trace_cache is not None:
            recorded = trace_cache.get_or_record(
                program, static=static, max_instructions=max_instructions)
        else:
            recorded = record_trace(
                program, static=static, max_instructions=max_instructions)
        cycles, lookups, mispredicts, replayed = replay_trace(
            static, recorded, fetch_unit, dcache, channel, arch,
            max_instructions)
        if recorded.fault is not None and max_instructions > recorded.n:
            # The execute-driven run would have attempted the faulting
            # instruction (there was budget left) and raised from it.
            raise SimulationError(recorded.fault)
        halted = replayed.halted
        instructions = replayed.n
        output = "".join(replayed.out_text)
        exit_code = replayed.exit_code
    else:
        core = FunctionalCore(program, static=static, pc_index=pc_index)
        if batched is None:
            batched = arch.in_order and pc_index is None
        elif batched and not (arch.in_order and pc_index is None):
            raise ValueError("batched=True requires an in-order arch on the "
                             "fixed-width SS32 layout")
        if batched:
            pipeline = run_inorder_blocks
        else:
            pipeline = run_inorder if arch.in_order else run_ooo
        cycles, lookups, mispredicts = pipeline(
            core, fetch_unit, dcache, channel,
            make_predictor(arch.predictor), arch, max_instructions)
        halted = core.halted
        instructions = core.instret
        output = "".join(core.output)
        exit_code = core.exit_code

    if not halted and instructions >= max_instructions:
        # Benchmarks are sized to halt; hitting the cap still yields a
        # valid steady-state measurement, recorded in extra.
        truncated = True
    else:
        truncated = False

    return SimResult(
        benchmark=program.name,
        arch=arch.name,
        mode=mode or (type(engine).__name__
                      if miss_path is engine and codepack is None
                      and engine is not None
                      else describe_mode(codepack)),
        instructions=instructions,
        cycles=cycles,
        icache_accesses=icache.stats.accesses,
        icache_misses=icache.stats.misses,
        dcache_accesses=dcache.stats.accesses,
        dcache_misses=dcache.stats.misses,
        branch_lookups=lookups,
        branch_mispredicts=mispredicts,
        engine=getattr(engine, "stats", None),
        output=output,
        exit_code=exit_code,
        extra={"truncated": truncated},
    )


def prepare(program):
    """Predecode once for reuse across many :func:`simulate` calls."""
    return predecode(program)
