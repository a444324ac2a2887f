"""Extension experiments beyond the paper's tables.

The paper motivates three follow-on questions which these experiments
answer with the same machinery:

* :func:`scheme_comparison` -- how does CodePack stack up against the
  prior hardware schemes it evolved from (CCRP byte-Huffman, full-word
  dictionary compression), in both size and speed?  (Paper Section 2
  describes both; Section 2.3 claims dictionary compression "achieves
  compression ratios similar to CodePack".)
* :func:`software_decompression` -- is "completely software-managed
  decompression" viable (the paper's closing suggestion)?  Sweeps the
  software decode cost to locate the break-even point.
* :func:`compressed_fetch_traffic` -- the mechanism behind the paper's
  speedups: memory traffic on the I-miss path, native vs compressed.
"""

from repro.eval.runner import Workbench
from repro.eval.tables import TableResult
from repro.schemes.ccrp import CcrpEngine, compress_ccrp
from repro.schemes.dictword import DictWordEngine, compress_dictword
from repro.schemes.software import SoftwareDecompEngine
from repro.sim.config import ARCH_4_ISSUE, CodePackConfig
from repro.sim.machine import simulate

MISS_HEAVY = ("cc1", "go", "perl", "vortex")


def _wb(wb):
    return wb if wb is not None else Workbench()


def _as_workbench(wb, bench):
    """``simulate`` keywords that price a custom-miss-path cell of
    *bench* the way *wb* prices its own cells: under its instruction
    cap, replaying the trace it holds, or execute-driven when it runs
    without replay (``--no-replay``)."""
    return {"max_instructions": wb.max_instructions,
            "replay": wb.trace(bench) if wb.replay else False}


def scheme_comparison(wb=None, benchmarks=None, arch=ARCH_4_ISSUE):
    """Size and speed of CodePack vs CCRP vs full-word dictionary."""
    wb = _wb(wb)
    rows = []
    for bench in wb.benchmarks(benchmarks):
        program = wb.program(bench)
        static = wb.static(bench)
        native = wb.run(bench, arch)

        codepack_image = wb.image(bench)
        codepack = wb.run(bench, arch, CodePackConfig())

        ccrp_image = compress_ccrp(program)
        ccrp = simulate(program, arch, static=static, mode="ccrp",
                        miss_path=CcrpEngine(ccrp_image, arch.memory,
                                             line_bytes=arch.icache
                                             .line_bytes),
                        **_as_workbench(wb, bench))

        dict_image = compress_dictword(program)
        dictword = simulate(
            program, arch, static=static, mode="dictword",
            miss_path=DictWordEngine(dict_image, arch.memory,
                                     CodePackConfig(),
                                     line_bytes=arch.icache.line_bytes),
            **_as_workbench(wb, bench))

        rows.append([bench,
                     codepack_image.compression_ratio,
                     ccrp_image.compression_ratio,
                     dict_image.compression_ratio,
                     codepack.speedup_over(native),
                     ccrp.speedup_over(native),
                     dictword.speedup_over(native)])
    return TableResult(
        exhibit="Extension A",
        title="Compression schemes compared (ratios; speedup over "
              "native, %s)" % arch.name,
        columns=["bench", "CodePack ratio", "CCRP ratio", "DictWord ratio",
                 "CodePack speedup", "CCRP speedup", "DictWord speedup"],
        rows=rows,
        formats={i: "%.3f" for i in range(1, 7)},
        notes="Expected shape: CodePack and DictWord compress to ~55-65% "
              "with near-native speed; CCRP compresses less (per-line "
              "framing, byte symbols) and pays heavily for serial "
              "4-symbol-per-instruction Huffman decode.")


def software_decompression(wb=None, benchmarks=None,
                           benches=("cc1", "perl", "pegwit"),
                           costs=(4, 16, 48), arch=ARCH_4_ISSUE):
    """Sweep the software decode cost (cycles per instruction).

    Run over benchmarks with very different miss rates: whether
    software decompression is viable is almost entirely a function of
    how often the handler runs.
    """
    wb = _wb(wb)
    if benchmarks is not None:
        benches = benchmarks
    rows = []
    for bench in benches:
        program = wb.program(bench)
        static = wb.static(bench)
        image = wb.image(bench)
        native = wb.run(bench, arch)
        hardware = wb.run(bench, arch, CodePackConfig())
        row = [bench, native.icache_miss_rate,
               hardware.speedup_over(native)]
        for cost in costs:
            engine = SoftwareDecompEngine(
                image, arch.memory, cycles_per_instruction=cost,
                line_bytes=arch.icache.line_bytes)
            result = simulate(program, arch, static=static,
                              miss_path=engine, mode="software%d" % cost,
                              **_as_workbench(wb, bench))
            row.append(result.speedup_over(native))
        rows.append(row)
    return TableResult(
        exhibit="Extension B",
        title="Software-managed decompression (%s): speedup over native"
              % arch.name,
        columns=["bench", "I-miss rate", "hardware"]
                + ["sw @%d cyc/inst" % c for c in costs],
        rows=rows,
        formats={i: "%.3f" for i in range(1, 3 + len(costs))},
        notes="Paper conclusion: 'Even completely software-managed "
              "decompression may be an attractive option to resource "
              "limited computers.'  The sweep shows it is viable "
              "exactly where misses are rare (loop-dominated embedded "
              "code); on miss-heavy programs even a 4-cycle/instruction "
              "handler is ruinous.")


def compressed_fetch_traffic(wb=None, benchmarks=None, arch=ARCH_4_ISSUE):
    """Main-memory I-fetch traffic: native vs CodePack.

    The paper's causal claim is that compression wins by moving fewer
    bytes per miss (plus prefetch); this table shows the raw traffic.
    """
    wb = _wb(wb)
    rows = []
    line_bytes = arch.icache.line_bytes
    for bench in wb.benchmarks(benchmarks):
        native = wb.run(bench, arch)
        packed = wb.run(bench, arch, CodePackConfig())
        native_bytes = native.icache_misses * line_bytes
        packed_bytes = packed.engine.compressed_bytes_fetched \
            + packed.engine.index_fetches * 4
        rows.append([bench, native.icache_misses, native_bytes,
                     packed.engine.blocks_fetched, packed_bytes,
                     packed_bytes / native_bytes if native_bytes else 1.0])
    return TableResult(
        exhibit="Extension C",
        title="I-miss memory traffic, native vs CodePack (%s)" % arch.name,
        columns=["bench", "native misses", "native bytes",
                 "blocks fetched", "compressed bytes", "traffic ratio"],
        rows=rows,
        formats={5: "%.3f"},
        notes="Compressed traffic below ~0.7x of native on miss-heavy "
              "benchmarks is what funds the optimized decompressor's "
              "speedups (each fetched block also prefetches the "
              "adjacent line).")


def dense_isa(wb=None, benchmarks=None, arch=ARCH_4_ISSUE):
    """SS16 (Thumb/MIPS16-style) density vs CodePack compression.

    Paper Section 2.1's framing: 16-bit subsets trade extra executed
    instructions for fetch density with no decompression hardware.
    Anchors: "Thumb achieve[s] 30% smaller code ... but run[s] 15%-20%
    slower on systems with ideal instruction memories"; Bunda found the
    penalty "often offset by the increased fetch efficiency" on narrow
    buses.
    """
    from repro.isa16 import simulate_ss16, translate

    wb = _wb(wb)
    near_ideal = arch.with_memory(bus_bits=128, first_latency=1, rate=1)
    narrow = arch.with_memory(bus_bits=16)
    rows = []
    for bench in wb.benchmarks(benchmarks):
        program = wb.program(bench)
        mixed = translate(program, line_bytes=arch.icache.line_bytes)
        row = [bench, mixed.size_ratio,
               wb.image(bench).compression_ratio]
        native = wb.run(bench, arch)
        dense = simulate_ss16(mixed, arch)
        row.append(dense.instructions / native.instructions - 1.0)
        row.append(native.cycles / dense.cycles)
        # Near-ideal memory: only the extra instructions remain.
        ideal_native = wb.run(bench, near_ideal)
        ideal_dense = simulate_ss16(mixed, near_ideal)
        row.append(ideal_native.cycles / ideal_dense.cycles)
        # Narrow bus: fetch density pays (Bunda's 16-bit DLX result).
        narrow_native = wb.run(bench, narrow)
        narrow_dense = simulate_ss16(mixed, narrow)
        row.append(narrow_native.cycles / narrow_dense.cycles)
        rows.append(row)
    return TableResult(
        exhibit="Extension D",
        title="Dense 16-bit ISA (SS16) vs CodePack (%s)" % arch.name,
        columns=["bench", "SS16 size ratio", "CodePack ratio",
                 "extra dyn insts", "speedup (baseline)",
                 "speedup (near-ideal mem)", "speedup (16b bus)"],
        rows=rows,
        formats={i: "%.3f" for i in range(1, 7)},
        notes="Shape anchors: SS16 shrinks code less than CodePack "
              "(~0.75-0.80 vs ~0.55-0.64) and executes more "
              "instructions, so it loses on ideal memory but wins on "
              "narrow buses -- Section 2.1's trade, measured.")


def compression_analysis(wb=None, benchmarks=None):
    """Entropy bounds and coding efficiency per benchmark.

    How much of each program's compression potential does CodePack's
    tagged two-dictionary scheme capture?  (A question the paper's
    conclusion gestures at with "even smaller compressed
    representations with higher decompression penalties could be
    used".)
    """
    from repro.codepack.analysis import entropy_report

    wb = _wb(wb)
    rows = []
    for bench in wb.benchmarks(benchmarks):
        program = wb.program(bench)
        image = wb.image(bench)
        report = entropy_report(program, image)
        rows.append([bench,
                     report.bound_bits_per_instruction,
                     report.achieved_bits_per_instruction,
                     report.coding_efficiency,
                     report.bound_ratio,
                     image.compression_ratio])
    return TableResult(
        exhibit="Extension E",
        title="Coding efficiency vs the halfword-entropy bound",
        columns=["bench", "entropy bound (bits/inst)",
                 "achieved (bits/inst)", "efficiency",
                 "bound ratio", "achieved ratio"],
        rows=rows,
        formats={i: "%.3f" for i in range(1, 6)},
        notes="'Achieved' counts only code bits (tags+indices+raw); the "
              "gap to 'achieved ratio' is framing (index table, "
              "dictionaries, pad).  The headroom between the bound and "
              "achieved ratios is what the paper's proposed "
              "higher-penalty representations would chase.")


EXTENSION_EXPERIMENTS = {
    "scheme_comparison": scheme_comparison,
    "software_decompression": software_decompression,
    "compressed_fetch_traffic": compressed_fetch_traffic,
    "dense_isa": dense_isa,
    "compression_analysis": compression_analysis,
}
