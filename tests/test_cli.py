"""Unit tests for the command-line interface (repro.cli)."""

import struct

import pytest

from repro.cli import main

ACL_TEXT = """\
permit ip 192.0.2.0/24 0.0.0.0/0
permit tcp 0.0.0.0/0 192.0.2.0/24 established
deny ip 0.0.0.0/0 192.0.2.0/24
"""


@pytest.fixture()
def acl_file(tmp_path):
    path = tmp_path / "policy.acl"
    path.write_text(ACL_TEXT)
    return str(path)


class TestMatchCommand:
    def test_permitted_packet_exits_zero(self, acl_file, capsys):
        code = main(
            ["match", acl_file, "--src", "192.0.2.7", "--dst", "8.8.8.8", "--proto", "6"]
        )
        assert code == 0
        assert "matched rule 1" in capsys.readouterr().out

    def test_denied_packet_exits_one(self, acl_file, capsys):
        code = main(
            [
                "match", acl_file,
                "--src", "8.8.8.8", "--dst", "192.0.2.7",
                "--proto", "6", "--flags", "0x02",
            ]
        )
        assert code == 1
        assert "deny" in capsys.readouterr().out

    def test_established_flag_permitted(self, acl_file, capsys):
        code = main(
            [
                "match", acl_file,
                "--src", "8.8.8.8", "--dst", "192.0.2.7",
                "--proto", "6", "--flags", "0x10",
            ]
        )
        assert code == 0
        assert "established" in capsys.readouterr().out

    def test_no_match_is_implicit_deny(self, acl_file, capsys):
        code = main(
            ["match", acl_file, "--src", "8.8.8.8", "--dst", "9.9.9.9", "--proto", "17"]
        )
        assert code == 1
        assert "implicit deny" in capsys.readouterr().out


class TestDatasetsCommand:
    def test_lists_sizes(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "D_0: 17 rules, 18 ternary entries" in out
        assert "classbench sizes" in out


class TestExperimentCommand:
    def test_table3_prints_and_saves(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS", str(tmp_path))
        assert main(["experiment", "table3", "--save"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert (tmp_path / "table3.txt").exists()

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])


class TestGenerateCommand:
    def test_campus_with_trace(self, tmp_path, capsys):
        acl_path = str(tmp_path / "d1.acl")
        trace_path = str(tmp_path / "d1.trace")
        code = main(
            [
                "generate", "campus", "--q", "1", "-o", acl_path,
                "--trace", trace_path, "--trace-count", "100",
            ]
        )
        assert code == 0
        from repro.workloads.io import load_acl, load_trace

        assert len(load_acl(acl_path)) == 34
        queries, key_length = load_trace(trace_path)
        assert len(queries) == 100 and key_length == 128

    def test_classbench(self, tmp_path):
        acl_path = str(tmp_path / "fw.acl")
        assert main(["generate", "classbench", "--profile", "fw", "--size", "50",
                     "-o", acl_path]) == 0
        from repro.workloads.io import load_acl

        assert len(load_acl(acl_path)) == 50

    def test_scan_trace(self, tmp_path):
        acl_path = str(tmp_path / "d0.acl")
        trace_path = str(tmp_path / "scan.trace")
        assert main(["generate", "campus", "--q", "0", "-o", acl_path,
                     "--trace", trace_path, "--trace-count", "10",
                     "--traffic", "scan"]) == 0
        from repro.acl.layout import LAYOUT_V4
        from repro.workloads.io import load_trace

        queries, _ = load_trace(trace_path)
        assert all(LAYOUT_V4.unpack_query(q)["dst_port"] == 5060 for q in queries)


class TestCompileCommand:
    def test_compile_to_binary(self, acl_file, tmp_path, capsys):
        out = str(tmp_path / "table.plmf")
        assert main(["compile", acl_file, "-o", out]) == 0
        from repro.core.serialize import load_frozen

        plane = load_frozen(out)
        assert plane.stride == 8
        assert len(plane) == 4  # 3 rules, established doubles one

    def test_compile_with_compression(self, tmp_path, capsys):
        from repro.core.serialize import load_frozen

        # Two adjacent exact ports in one rule class merge to a prefix.
        acl_path = tmp_path / "c.acl"
        acl_path.write_text(
            "permit tcp any any eq 80\npermit tcp any any eq 81\n"
        )
        out = str(tmp_path / "c.plmf")
        assert main(["compile", str(acl_path), "-o", out, "--compress"]) == 0
        assert "compressed" in capsys.readouterr().out
        plane = load_frozen(out)
        # Compression merges only same-(value, priority) classes; two
        # distinct rules stay distinct but the plane still matches both.
        from repro.packet.headers import PacketHeader

        q80 = PacketHeader(1, 2, 6, 3, 80).to_query()
        q81 = PacketHeader(1, 2, 6, 3, 81).to_query()
        assert plane.lookup(q80) is not None
        assert plane.lookup(q81) is not None

    def test_compile_writes_the_library_build(self, tmp_path, capsys):
        """``compile`` emits exactly the bytes the library's own builder
        serializes: the build-order plane."""
        from repro.acl.compiler import compile_acl
        from repro.acl.parser import parse_acl
        from repro.core.frozen import FrozenMatcher
        from repro.core.serialize import serialize_frozen

        acl_path = str(tmp_path / "campus.acl")
        assert main(["generate", "campus", "--q", "1", "-o", acl_path]) == 0
        out = str(tmp_path / "out.plmf")
        assert main(["compile", acl_path, "-o", out, "--stride", "6"]) == 0
        with open(acl_path, encoding="utf-8") as handle:
            compiled = compile_acl(parse_acl(handle.read()))
        expected = serialize_frozen(
            FrozenMatcher.build(compiled.entries, compiled.layout.length, stride=6)
        )
        with open(out, "rb") as handle:
            assert handle.read() == expected

    @pytest.mark.parametrize("flag", ["--layout", "--trace"])
    def test_layout_flags_are_gone(self, acl_file, tmp_path, capsys, flag):
        """Every compile lays the plane out in build order; the retired
        hot-layout flags are an argparse error."""
        with pytest.raises(SystemExit) as exc:
            main(["compile", acl_file, "-o", str(tmp_path / "t.plmf"), flag, "hot"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_frozen_flag_is_gone(self, acl_file, tmp_path, capsys):
        """Every compile writes a frozen plane; the old switch is an
        argparse error."""
        with pytest.raises(SystemExit) as exc:
            main(["compile", acl_file, "-o", str(tmp_path / "t.plmf"), "--frozen"])
        assert exc.value.code == 2
        assert "--frozen" in capsys.readouterr().err


class TestAnalyzeCommand:
    def test_clean_acl_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "clean.acl"
        path.write_text("permit tcp any 10.0.0.0/8\npermit udp any 10.0.0.0/8\n")
        assert main(["analyze", str(path)]) == 0
        assert "0 shadowed, 0 correlations" in capsys.readouterr().out

    def test_redundant_rule_flagged(self, tmp_path, capsys):
        path = tmp_path / "dup.acl"
        path.write_text("permit ip 10.0.0.0/8 any\npermit ip 10.1.0.0/16 any\n")
        assert main(["analyze", str(path)]) == 1
        assert "redundant" in capsys.readouterr().out

    def test_generalizations_summarized(self, tmp_path, capsys):
        path = tmp_path / "idiom.acl"
        path.write_text(
            "permit tcp any 10.0.0.32/27 eq 80\ndeny ip any 10.0.0.0/8\n"
        )
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "1 generalizations" in out
        assert "generalizes" not in out  # only listed with --verbose
        assert main(["analyze", str(path), "--verbose"]) == 0
        assert "generalizes" in capsys.readouterr().out


class TestReplayCommand:
    @pytest.fixture()
    def dataset(self, tmp_path):
        acl_path = str(tmp_path / "d0.acl")
        trace_path = str(tmp_path / "d0.trace")
        main(["generate", "campus", "--q", "0", "-o", acl_path,
              "--trace", trace_path, "--trace-count", "80"])
        return acl_path, trace_path

    def test_replay_trace(self, dataset, capsys):
        acl_path, trace_path = dataset
        assert main(["replay", acl_path, trace_path]) == 0
        out = capsys.readouterr().out
        assert "replayed 80 packets" in out
        assert "permit" in out

    @pytest.mark.parametrize("command", ["replay", "metrics", "health"])
    def test_matcher_flag_is_gone(self, dataset, command, capsys):
        acl_path, trace_path = dataset
        with pytest.raises(SystemExit) as info:
            main([command, acl_path, trace_path, "--matcher", "sorted-list"])
        assert info.value.code == 2
        assert "--matcher" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,flags",
        [
            ("replay", ("--stride", "--cache-size", "--shards")),
            ("metrics", ("--stride", "--cache-size")),
            ("health", ("--stride", "--cache-size", "--shards")),
            ("compile", ("--stride",)),
        ],
        ids=["replay", "metrics", "health", "compile"],
    )
    def test_an_invalid_engine_config_is_one_error_line(
        self, dataset, tmp_path, command, flags, capsys
    ):
        """Every subcommand validates its flags through one EngineConfig
        and reports a rejected value as one ``error:`` line, exit 2."""
        acl_path, trace_path = dataset
        output = tmp_path / "out.plmf"
        rest = ["-o", str(output)] if command == "compile" else [trace_path]
        bad = {"--stride": ("0", "17", "31"), "--cache-size": ("-1",), "--shards": ("-1",)}
        for flag in flags:
            for value in bad[flag]:
                assert main([command, acl_path, *rest, flag, value]) == 2
                captured = capsys.readouterr()
                lines = captured.err.strip().splitlines()
                assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
                assert flag[2:].replace("-", "_") in lines[0]
                assert captured.out == ""
        assert not output.exists()

    def test_replay_pcap(self, dataset, tmp_path, capsys):
        from repro.packet import PacketHeader, PcapPacket, encode_packet, write_pcap

        acl_path, _ = dataset
        pcap_path = str(tmp_path / "t.pcap")
        header = PacketHeader(0x0A000001, 0x08080808, 6, 40000, 443, 0x02)
        write_pcap(pcap_path, [PcapPacket(0.0, encode_packet(header))])
        assert main(["replay", acl_path, pcap_path]) == 0
        assert "replayed 1 packets" in capsys.readouterr().out

    def test_key_length_mismatch(self, dataset, tmp_path, capsys):
        from repro.workloads.io import save_trace

        acl_path, _ = dataset
        bad_trace = str(tmp_path / "bad.trace")
        save_trace([1, 2, 3], 64, bad_trace)
        assert main(["replay", acl_path, bad_trace]) == 2
        assert "64 bits" in capsys.readouterr().err

    def test_empty_trace(self, dataset, tmp_path, capsys):
        from repro.workloads.io import save_trace

        acl_path, _ = dataset
        empty = str(tmp_path / "empty.trace")
        save_trace([], 128, empty)
        assert main(["replay", acl_path, empty]) == 2


#: the head of a table in the retired Palmtrie+ format (magic, version 1,
#: stride 8, skipping on, 128-bit keys, one node, root 0, empty blob)
RETIRED_TABLE = struct.pack("<4sHBBIIII", b"PLM+", 1, 8, 1, 128, 1, 0, 0) + bytes(48)


class TestBinaryPolicyReplay:
    """Replay of compiled .plmf policies, and the fail-closed CLI edge:
    corrupt or truncated planes must exit nonzero with a one-line
    error and a re-compile hint, never a traceback."""

    @pytest.fixture()
    def dataset(self, tmp_path):
        acl_path = str(tmp_path / "d0.acl")
        trace_path = str(tmp_path / "d0.trace")
        main(["generate", "campus", "--q", "0", "-o", acl_path,
              "--trace", trace_path, "--trace-count", "80"])
        return acl_path, trace_path

    def test_replay_compiled_plmf(self, dataset, tmp_path, capsys):
        acl_path, trace_path = dataset
        plmf = str(tmp_path / "p.plmf")
        assert main(["compile", acl_path, "-o", plmf]) == 0
        capsys.readouterr()
        assert main(["replay", plmf, trace_path]) == 0
        out = capsys.readouterr().out
        assert "replayed 80 packets" in out
        assert "match" in out  # binary policies report match/implicit-deny

    def test_inspect_describes_the_plane(self, dataset, tmp_path, capsys):
        acl_path, trace_path = dataset
        plmf = str(tmp_path / "p.plmf")
        assert main(["compile", acl_path, "-o", plmf, "--stride", "6"]) == 0
        capsys.readouterr()
        assert main(["inspect", plmf]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"{plmf}: frozen plane")
        assert "key length: 128 bits" in out
        assert "layout" not in out
        assert "stride:     6 (uniform)" in out

    @pytest.mark.parametrize("command", ["replay", "health"])
    def test_compiled_policy_serves_without_rebuilding_its_source(
        self, dataset, tmp_path, capsys, monkeypatch, command
    ):
        """A loaded plane serves as loaded: its Palmtrie_k is rebuilt
        only for an update, and a replay takes none."""
        from repro.core.frozen import FrozenMatcher

        acl_path, trace_path = dataset
        plmf = str(tmp_path / "p.plmf")
        assert main(["compile", acl_path, "-o", plmf]) == 0
        rebuilds = []
        rebuild = FrozenMatcher.rebuild_source
        monkeypatch.setattr(
            FrozenMatcher,
            "rebuild_source",
            lambda plane: rebuilds.append(plane) or rebuild(plane),
        )
        assert main([command, plmf, trace_path]) == 0
        assert rebuilds == []

    @pytest.mark.parametrize("command", ["replay", "inspect", "health", "compile"])
    def test_plm_table_fails_closed(self, dataset, tmp_path, capsys, command):
        """A table in the retired Palmtrie+ format is refused with one
        stderr line carrying a re-compile hint, and exit code 2."""
        _, trace_path = dataset
        plm = tmp_path / "p.plm"
        plm.write_bytes(RETIRED_TABLE)
        argv = {
            "replay": ["replay", str(plm), trace_path],
            "inspect": ["inspect", str(plm)],
            "health": ["health", str(plm), trace_path],
            "compile": ["compile", str(plm), "-o", str(tmp_path / "q.plmf")],
        }[command]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error:") and "re-compile" in err
        assert "Traceback" not in err

    def test_truncated_policy_fails_closed(self, dataset, tmp_path, capsys):
        acl_path, trace_path = dataset
        policy = tmp_path / "p.plmf"
        assert main(["compile", acl_path, "-o", str(policy)]) == 0
        blob = policy.read_bytes()
        policy.write_bytes(blob[: len(blob) // 2])
        capsys.readouterr()
        assert main(["replay", str(policy), trace_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "corrupt" in err
        assert "re-compile" in err
        assert "Traceback" not in err

    def test_bit_flipped_policy_fails_closed(self, dataset, tmp_path, capsys):
        acl_path, trace_path = dataset
        plmf = tmp_path / "p.plmf"
        assert main(["compile", acl_path, "-o", str(plmf)]) == 0
        blob = bytearray(plmf.read_bytes())
        blob[len(blob) // 3] ^= 0xFF
        plmf.write_bytes(bytes(blob))
        capsys.readouterr()
        code = main(["replay", str(plmf), trace_path])
        err = capsys.readouterr().err
        # A flip the decoder's checks catch exits 2; one that survives
        # decoding must still replay cleanly — never a traceback.
        assert code in (0, 2)
        assert "Traceback" not in err

    def test_compile_rejects_binary_input(self, dataset, tmp_path, capsys):
        acl_path, _ = dataset
        plmf = str(tmp_path / "p.plmf")
        assert main(["compile", acl_path, "-o", plmf]) == 0
        capsys.readouterr()
        assert main(["compile", plmf, "-o", str(tmp_path / "q.plmf")]) == 2
        err = capsys.readouterr().err
        assert "compiled frozen plane, not ACL text" in err

    def test_replay_pcap_against_frozen_policy(self, dataset, tmp_path, capsys):
        # A frozen 128-bit policy still maps pcap packets via LAYOUT_V4.
        acl_path, _ = dataset
        from repro.packet import PacketHeader, PcapPacket, encode_packet, write_pcap

        plmf = str(tmp_path / "p.plmf")
        assert main(["compile", acl_path, "-o", plmf]) == 0
        pcap_path = str(tmp_path / "t.pcap")
        header = PacketHeader(0x0A000001, 0x08080808, 6, 40000, 443, 0x02)
        write_pcap(pcap_path, [PcapPacket(0.0, encode_packet(header))])
        capsys.readouterr()
        assert main(["replay", plmf, pcap_path]) == 0
        assert "replayed 1 packets" in capsys.readouterr().out


class TestHealthCommand:
    @pytest.fixture()
    def dataset(self, tmp_path):
        acl_path = str(tmp_path / "d0.acl")
        trace_path = str(tmp_path / "d0.trace")
        main(["generate", "campus", "--q", "0", "-o", acl_path,
              "--trace", trace_path, "--trace-count", "80"])
        return acl_path, trace_path

    def test_healthy_replay_exits_zero(self, dataset, capsys):
        acl_path, trace_path = dataset
        assert main(["health", acl_path, trace_path, "--shadow-sample", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "health         ok" in out
        assert "serving plane  frozen" in out
        assert "breaker        closed" in out
        assert "shadow verify" in out

    def test_valid_checkpoint_reported(self, dataset, tmp_path, capsys):
        from repro.core.multibit import MultibitPalmtrie
        from repro.resilience import write_checkpoint
        from repro.workloads.io import load_acl
        from repro.acl.compiler import compile_acl

        acl_path, trace_path = dataset
        compiled = compile_acl(load_acl(acl_path))
        matcher = MultibitPalmtrie.build(compiled.entries, compiled.layout.length, stride=8)
        ckpt = str(tmp_path / "c.plmc")
        write_checkpoint(ckpt, matcher, epoch=2, generation=9)
        assert main(["health", acl_path, trace_path, "--checkpoint", ckpt]) == 0
        out = capsys.readouterr().out
        assert "valid (epoch 2, generation 9" in out

    def test_corrupt_checkpoint_exits_two(self, dataset, tmp_path, capsys):
        acl_path, trace_path = dataset
        ckpt = tmp_path / "c.plmc"
        ckpt.write_bytes(b"XXXX not a checkpoint")
        assert main(["health", acl_path, trace_path,
                     "--checkpoint", str(ckpt)]) == 2
        out = capsys.readouterr().out
        assert "INVALID" in out

    def test_bad_shadow_sample_rejected(self, dataset, capsys):
        acl_path, trace_path = dataset
        assert main(["health", acl_path, trace_path,
                     "--shadow-sample", "1.5"]) == 2
        assert "--shadow-sample" in capsys.readouterr().err


class TestDiffCommand:
    def test_equivalent_reorder_exits_zero(self, tmp_path, capsys):
        old = tmp_path / "old.acl"
        new = tmp_path / "new.acl"
        old.write_text("permit tcp any 10.0.0.0/8\ndeny udp any 11.0.0.0/8\n")
        new.write_text("deny udp any 11.0.0.0/8\npermit tcp any 10.0.0.0/8\n")
        assert main(["diff", str(old), str(new)]) == 0
        out = capsys.readouterr().out
        assert "~" in out and "semantics preserved" in out

    def test_semantic_change_exits_one(self, tmp_path, capsys):
        old = tmp_path / "old.acl"
        new = tmp_path / "new.acl"
        old.write_text("deny tcp any 10.0.0.0/8 eq 80\npermit tcp any 10.0.0.0/8\n")
        new.write_text("permit tcp any 10.0.0.0/8\ndeny tcp any 10.0.0.0/8 eq 80\n")
        assert main(["diff", str(old), str(new), "--samples", "2500"]) == 1
        out = capsys.readouterr().out
        assert "SEMANTICS CHANGED" in out
        assert "counterexample packet" in out

    def test_identical(self, tmp_path, capsys):
        path = tmp_path / "a.acl"
        path.write_text("permit ip any any\n")
        assert main(["diff", str(path), str(path)]) == 0
        assert "identical" in capsys.readouterr().out


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])
