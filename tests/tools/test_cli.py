"""Tests for the command-line tools (invoked in-process, except where
the test is about what the process prints when it fails)."""

import dataclasses
import os
import subprocess
import sys

import pytest

from repro.isa.program import Program
from repro.tools import asm, codepack, disasm, run
from repro.tools.container import (
    load_image,
    load_program,
    save_image,
    save_program,
)

SOURCE = """
.text 0x400000
main:
    li $t0, 0
    li $t1, 25
loop:
    addiu $t0, $t0, 1
    bne $t0, $t1, loop
    move $a0, $t0
    li $v0, 1
    syscall
    li $v0, 10
    syscall
"""


@pytest.fixture()
def source_file(tmp_path):
    path = tmp_path / "demo.s"
    path.write_text(SOURCE)
    return path


@pytest.fixture()
def program_file(tmp_path, source_file):
    out = tmp_path / "demo.ss32"
    assert asm.main([str(source_file), "-o", str(out)]) == 0
    return out


@pytest.fixture()
def image_file(tmp_path, program_file):
    out = tmp_path / "demo.cpk"
    assert codepack.main(["compress", str(program_file),
                          "-o", str(out)]) == 0
    return out


class TestAsm:
    def test_assembles(self, program_file):
        program = load_program(program_file)
        assert program.name == "demo"
        assert len(program) == 13

    def test_symbol_map(self, tmp_path, source_file):
        out = tmp_path / "demo.ss32"
        map_file = tmp_path / "demo.map"
        assert asm.main([str(source_file), "-o", str(out),
                         "--map", str(map_file)]) == 0
        text = map_file.read_text()
        assert "main" in text and "loop" in text

    def test_error_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.s"
        bad.write_text("frobnicate $t0\n")
        assert asm.main([str(bad), "-o", str(tmp_path / "x.ss32")]) == 1
        assert "line 1" in capsys.readouterr().err

    def test_custom_name(self, tmp_path, source_file):
        out = tmp_path / "demo.ss32"
        asm.main([str(source_file), "-o", str(out), "--name", "zippy"])
        assert load_program(out).name == "zippy"


class TestDisasm:
    def test_lists_instructions(self, program_file, capsys):
        assert disasm.main([str(program_file)]) == 0
        out = capsys.readouterr().out
        assert "main:" in out
        assert "addiu $t0, $t0, 1" in out

    def test_start_and_count(self, program_file, capsys):
        assert disasm.main([str(program_file), "--start", "0x400010",
                            "--count", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") <= 4

    def test_no_symbols(self, program_file, capsys):
        disasm.main([str(program_file), "--no-symbols"])
        assert "main:" not in capsys.readouterr().out


class TestCodepackCli:
    def test_inspect(self, image_file, capsys):
        assert codepack.main(["inspect", str(image_file)]) == 0
        out = capsys.readouterr().out
        assert "compressed" in out
        assert "dictionaries" in out

    def test_verify_ok(self, program_file, image_file, capsys):
        assert codepack.main(["verify", str(program_file),
                              str(image_file)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_verify_detects_corruption(self, tmp_path, program_file,
                                       image_file, capsys):
        # Corrupt the compressed stream: swap a dictionary entry so
        # decoding yields different (but decodable) instructions.
        from repro.tools.container import load_image, save_image
        image = load_image(image_file)
        entries = list(image.high_dict.entries)
        entries[0] ^= 0x0004
        image.high_dict = type(image.high_dict)(image.high_scheme,
                                                entries)
        bad = tmp_path / "bad.cpk"
        save_image(bad, image)
        assert codepack.main(["verify", str(program_file),
                              str(bad)]) == 1
        assert "MISMATCH" in capsys.readouterr().err

    def test_verify_reports_length_mismatch(self, tmp_path, program_file,
                                            image_file, capsys):
        # The image decodes to a strict prefix of the longer program.
        from repro.tools.container import save_program
        program = load_program(program_file)
        program.text = list(program.text) + [0, 0, 0]
        longer = tmp_path / "longer.ss32"
        save_program(longer, program)
        assert codepack.main(["verify", str(longer),
                              str(image_file)]) == 1
        err = capsys.readouterr().err
        assert "MISMATCH" in err
        assert "13" in err and "16" in err


class TestRun:
    def test_native_report(self, program_file, capsys):
        assert run.main([str(program_file)]) == 0
        out = capsys.readouterr().out
        assert "IPC" in out
        assert "program output: 25" in out

    def test_codepack_modes(self, program_file, capsys):
        assert run.main([str(program_file), "--codepack"]) == 0
        assert "decompressor" in capsys.readouterr().out
        assert run.main([str(program_file), "--optimized"]) == 0

    def test_compare(self, program_file, image_file, capsys):
        assert run.main([str(program_file), "--compare",
                         "--image", str(image_file)]) == 0
        out = capsys.readouterr().out
        assert "native" in out and "codepack" in out

    def test_arch_selection(self, program_file, capsys):
        assert run.main([str(program_file), "--arch", "1-issue"]) == 0
        assert "1-issue" in capsys.readouterr().out

    def test_replay_matches_execute(self, program_file, capsys):
        assert run.main([str(program_file)]) == 0
        executed = capsys.readouterr().out
        assert run.main([str(program_file), "--replay"]) == 0
        assert capsys.readouterr().out == executed

    def test_trace_cache_implies_replay(self, tmp_path, program_file,
                                        capsys):
        cache_dir = tmp_path / "traces"
        assert run.main([str(program_file),
                         "--trace-cache", str(cache_dir)]) == 0
        first = capsys.readouterr().out
        assert list(cache_dir.glob("*.trace"))  # trace persisted
        assert run.main([str(program_file), "--codepack",
                         "--trace-cache", str(cache_dir)]) == 0
        assert "decompressor" in capsys.readouterr().out
        # --no-replay wins over the cache directory.
        assert run.main([str(program_file), "--no-replay",
                         "--trace-cache", str(cache_dir)]) == 0
        assert capsys.readouterr().out == first

    def test_compare_replay(self, program_file, image_file, capsys):
        assert run.main([str(program_file), "--compare",
                         "--image", str(image_file)]) == 0
        executed = capsys.readouterr().out
        assert run.main([str(program_file), "--compare", "--replay",
                         "--image", str(image_file)]) == 0
        assert capsys.readouterr().out == executed


class TestCompareSharesWork:
    """``--compare`` predecodes, compresses and records once for its
    three runs, and prints what three separate oracle runs give."""

    @pytest.fixture(scope="class")
    def pegwit(self, tmp_path_factory):
        from repro.tools.container import save_program
        from repro.workloads.suite import build_benchmark

        program = build_benchmark("pegwit", 0.02)
        path = tmp_path_factory.mktemp("pegwit") / "pegwit.ss32"
        save_program(str(path), program)
        return path

    @pytest.fixture()
    def counts(self, monkeypatch):
        import repro.sim.cpu as cpu
        import repro.sim.machine as machine
        import repro.sim.replay as replay

        counts = {"predecode": 0, "compress": 0, "record": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cpu.StaticText, "__init__", counting(
            "predecode", cpu.StaticText.__init__))
        compress = counting("compress", machine.compress_program)
        record = counting("record", replay.record_trace)
        for owner in (machine, run):
            monkeypatch.setattr(owner, "compress_program", compress,
                                raising=False)
            monkeypatch.setattr(owner, "record_trace", record)
        return counts

    @pytest.mark.parametrize("arch, records", [("1-issue", 1),
                                               ("4-issue", 0)])
    def test_each_step_once(self, pegwit, counts, capsys, arch, records):
        # 1-issue replays by default, so it records once; 4-issue runs
        # the execute-driven model and records nothing.
        assert run.main([str(pegwit), "--arch", arch, "--compare"]) == 0
        assert counts == {"predecode": 1, "compress": 1, "record": records}

    @pytest.mark.parametrize("arch", ["1-issue", "4-issue", "8-issue"])
    def test_output_is_the_oracle_runs(self, pegwit, capsys, arch):
        from repro.sim.config import BASELINES, CodePackConfig
        from repro.sim.machine import simulate

        assert run.main([str(pegwit), "--arch", arch, "--compare"]) == 0
        out = capsys.readouterr().out.splitlines()
        program = load_program(pegwit)
        oracle = [simulate(program, BASELINES[arch], codepack=codepack,
                           replay=False)
                  for codepack in (None, CodePackConfig(),
                                   CodePackConfig.optimized())]
        assert out[1:] == ["%-24s %10d %8.3f %8.3fx"
                           % (r.mode, r.cycles, r.ipc,
                              r.speedup_over(oracle[0])) for r in oracle]


class TestDensify:
    def test_translates_and_verifies(self, tmp_path, program_file,
                                     capsys):
        from repro.tools import densify
        out = tmp_path / "demo.ss16"
        assert densify.main([str(program_file), "-o", str(out),
                             "--verify"]) == 0
        text = capsys.readouterr().out
        assert "size ratio" in text
        assert "decode back exactly" in text
        assert out.stat().st_size > 0

    def test_output_smaller_than_input_text(self, tmp_path,
                                            program_file):
        from repro.tools import densify
        from repro.tools.container import load_program
        out = tmp_path / "demo.ss16"
        densify.main([str(program_file), "-o", str(out)])
        assert out.stat().st_size \
            <= load_program(program_file).text_size


SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__)))), "src")


class TestDamagedInputs:
    """A damaged or missing input file is one stderr line, ``<path>:
    <reason>``, and exit status 1 -- never a traceback."""

    @pytest.fixture()
    def files(self, tmp_path, program_file, image_file):
        (tmp_path / "trunc.ss32").write_bytes(program_file.read_bytes()[:40])
        (tmp_path / "trunc.cpk").write_bytes(image_file.read_bytes()[:40])
        (tmp_path / "random.bin").write_bytes(
            bytes((i * 37 + 11) % 256 for i in range(200)))
        # Intact containers around damaged 35-byte code streams.
        image = load_image(image_file)
        assert len(image.code_bytes) == 35
        for name, code in (("empty", b""), ("slot", b"\x01" * 35),
                           ("tag", b"\xc0" * 35)):
            save_image(tmp_path / ("stream-%s.cpk" % name),
                       dataclasses.replace(image, code_bytes=code))
        # Intact programs that fault when run.
        save_program(tmp_path / "empty.ss32", Program(text=[]))
        save_program(tmp_path / "bad-word.ss32",
                     Program(text=[0x24080001, 0xFC000000]))
        return tmp_path

    @pytest.mark.parametrize("argv, culprit, reason", [
        pytest.param(["codepack", "verify", "demo.ss32", "trunc.cpk"],
                     "trunc.cpk", "truncated container",
                     id="codepack-verify"),
        pytest.param(["codepack", "verify", "demo.ss32", "stream-empty.cpk"],
                     "stream-empty.cpk", "bitstream exhausted",
                     id="codepack-verify-exhausted-stream"),
        pytest.param(["codepack", "verify", "demo.ss32", "stream-slot.cpk"],
                     "stream-slot.cpk",
                     "dictionary slot 4 beyond high dictionary (3 entries)",
                     id="codepack-verify-bad-dictionary-slot"),
        pytest.param(["codepack", "verify", "demo.ss32", "stream-tag.cpk"],
                     "stream-tag.cpk", "'unknown tag 0b110/3 in high stream'",
                     id="codepack-verify-unknown-tag"),
        pytest.param(["codepack", "inspect", "random.bin"], "random.bin",
                     "bad magic (not a 'CPKIMG' container)",
                     id="codepack-inspect-garbage"),
        pytest.param(["codepack", "inspect", "missing.cpk"], "missing.cpk",
                     "No such file or directory",
                     id="codepack-inspect-missing"),
        pytest.param(["codepack", "compress", "trunc.ss32", "-o", "out.cpk"],
                     "trunc.ss32", "truncated container",
                     id="codepack-compress"),
        pytest.param(["run", "trunc.ss32"], "trunc.ss32",
                     "truncated container", id="run"),
        pytest.param(["run", "demo.ss32", "--image", "trunc.cpk"],
                     "trunc.cpk", "truncated container", id="run-image"),
        pytest.param(["disasm", "trunc.ss32"], "trunc.ss32",
                     "truncated container", id="disasm"),
        pytest.param(["densify", "trunc.ss32", "-o", "out.ss16"],
                     "trunc.ss32", "truncated container", id="densify"),
        pytest.param(["run", "empty.ss32"], "empty.ss32",
                     "pc 0x400000 outside .text", id="run-fault"),
        pytest.param(["run", "empty.ss32", "--arch", "1-issue"],
                     "empty.ss32", "pc 0x400000 outside .text",
                     id="run-fault-replayed"),
        pytest.param(["run", "empty.ss32", "--compare"], "empty.ss32",
                     "pc 0x400000 outside .text", id="run-compare-fault"),
        pytest.param(["run", "bad-word.ss32"], "bad-word.ss32",
                     "undecodable instruction 0xfc000000 at 0x400004",
                     id="run-undecodable"),
    ])
    def test_one_line_and_exit_1(self, files, argv, culprit, reason):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.tools." + argv[0]] + argv[1:],
            cwd=str(files), env=dict(os.environ, PYTHONPATH=SRC),
            capture_output=True, text=True)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.splitlines() == ["%s: %s" % (culprit, reason)]
        assert not (files / "out.cpk").exists()
        assert not (files / "out.ss16").exists()
