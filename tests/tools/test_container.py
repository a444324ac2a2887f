"""Tests for the on-disk containers."""

import json
import struct

import pytest

from repro.codepack.compressor import compress_program
from repro.tools.container import (
    ContainerError,
    dump_image,
    dump_program,
    load_image,
    load_program,
    save_image,
    save_program,
)
from tests.conftest import make_counting_program, make_memory_program


class TestProgramContainer:
    def test_roundtrip(self, tmp_path):
        prog = make_memory_program()
        path = tmp_path / "prog.ss32"
        save_program(path, prog)
        loaded = load_program(path)
        assert loaded.text == prog.text
        assert loaded.text_base == prog.text_base
        assert loaded.entry == prog.entry
        assert loaded.data == prog.data
        assert loaded.symbols == prog.symbols
        assert loaded.name == prog.name

    def test_loaded_program_runs_identically(self, tmp_path):
        from repro.sim import ARCH_1_ISSUE, simulate
        prog = make_counting_program(200)
        path = tmp_path / "prog.ss32"
        save_program(path, prog)
        original = simulate(prog, ARCH_1_ISSUE)
        reloaded = simulate(load_program(path), ARCH_1_ISSUE)
        assert reloaded.output == original.output
        assert reloaded.cycles == original.cycles

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.ss32"
        path.write_bytes(b"NOTSS32\0" + b"\0" * 64)
        with pytest.raises(ContainerError):
            load_program(path)

    def test_truncated_rejected(self, tmp_path):
        prog = make_counting_program(50)
        path = tmp_path / "prog.ss32"
        save_program(path, prog)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(ContainerError):
            load_program(path)

    def test_bad_version_rejected(self, tmp_path):
        prog = make_counting_program(5)
        path = tmp_path / "prog.ss32"
        save_program(path, prog)
        data = bytearray(path.read_bytes())
        data[8] = 99  # version byte
        path.write_bytes(bytes(data))
        with pytest.raises(ContainerError):
            load_program(path)


    @pytest.mark.parametrize("mangle, reason", [
        (lambda text: b"[" + text[1:], "malformed symbol table"),
        (lambda text: b'"' + b"x" * (len(text) - 2) + b'"',
         "malformed symbol table"),
        (lambda text: text[:2] + b"\xff" + text[3:], "malformed UTF-8 text"),
    ], ids=["bad-json", "not-a-mapping", "bad-utf8"])
    def test_malformed_symbol_table_rejected(self, tmp_path, mangle,
                                             reason):
        prog = make_counting_program(5)
        data = dump_program(prog)
        symbols = json.dumps(prog.symbols).encode("utf-8")
        assert data.count(symbols) == 1
        path = tmp_path / "prog.ss32"
        path.write_bytes(data.replace(symbols, mangle(symbols)))
        with pytest.raises(ContainerError, match=reason):
            load_program(path)

    def test_malformed_name_rejected(self, tmp_path):
        prog = make_counting_program(5)
        assert prog.name
        path = tmp_path / "prog.ss32"
        path.write_bytes(dump_program(prog)[:-1] + b"\xff")
        with pytest.raises(ContainerError, match="malformed UTF-8 text"):
            load_program(path)

class TestImageContainer:
    def test_roundtrip(self, tmp_path, pegwit_small):
        image = compress_program(pegwit_small)
        path = tmp_path / "prog.cpk"
        save_image(path, image)
        loaded = load_image(path)
        assert loaded.code_bytes == image.code_bytes
        assert loaded.index_entries == image.index_entries
        assert loaded.high_dict.entries == image.high_dict.entries
        assert loaded.low_dict.entries == image.low_dict.entries
        assert loaded.blocks == image.blocks
        assert loaded.stats == image.stats
        assert loaded.compression_ratio == image.compression_ratio
        assert loaded.block_instructions == image.block_instructions
        assert loaded.group_blocks == image.group_blocks

    def test_loaded_image_decompresses(self, tmp_path):
        from repro.codepack.decompressor import decompress_program
        prog = make_memory_program()
        image = compress_program(prog)
        path = tmp_path / "prog.cpk"
        save_image(path, image)
        assert decompress_program(load_image(path)) == prog.text

    def test_loaded_image_simulates_identically(self, tmp_path):
        from repro.sim import ARCH_4_ISSUE, CodePackConfig, simulate
        prog = make_counting_program(300)
        image = compress_program(prog)
        path = tmp_path / "prog.cpk"
        save_image(path, image)
        a = simulate(prog, ARCH_4_ISSUE, codepack=CodePackConfig(),
                     image=image)
        b = simulate(prog, ARCH_4_ISSUE, codepack=CodePackConfig(),
                     image=load_image(path))
        assert a.cycles == b.cycles

    def test_wrong_container_type_rejected(self, tmp_path):
        prog = make_counting_program(5)
        path = tmp_path / "prog.ss32"
        save_program(path, prog)
        with pytest.raises(ContainerError):
            load_image(path)

    def test_malformed_name_rejected(self, tmp_path):
        image = compress_program(make_counting_program(5))
        assert image.name
        path = tmp_path / "prog.cpk"
        path.write_bytes(dump_image(image)[:-1] + b"\xff")
        with pytest.raises(ContainerError, match="malformed UTF-8 text"):
            load_image(path)

    def test_duplicate_dictionary_entry_rejected(self, tmp_path):
        # A flipped bit that turns one dictionary entry into a copy of
        # another is a damaged container, not a raw ValueError.
        image = compress_program(make_memory_program())
        entries = image.high_dict.entries
        assert len(entries) >= 2
        data = bytearray(dump_image(image))
        at = data.index(struct.pack("<%dH" % len(entries), *entries))
        data[at + 2:at + 4] = data[at:at + 2]
        path = tmp_path / "prog.cpk"
        path.write_bytes(bytes(data))
        with pytest.raises(ContainerError, match="malformed dictionary"):
            load_image(path)
