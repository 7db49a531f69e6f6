import numpy as np
import pytest

from qcapprox import __version__, cli, fileio
from qcapprox.cli import _sweep_values, main
from qcapprox.fileio import (
    format_matrix,
    format_problem,
    format_state,
    read_state,
    write_circuit,
    write_state,
)
from qcapprox.measure import sample_haar_state
from qcapprox.problems import DecisionProblem
from qcapprox.synthesis import prepare_state
from qcapprox.tensor import Circuit, DomainError, StateVec
from helpers import haar_unitary, random_state


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_provenance_header(capsys):
    code, out, _ = run(capsys, "bounds", "--table", "thm34", "--n", "3", "--k", "8")
    assert code == 0
    first = out.splitlines()[0]
    assert first.startswith(f"# qcapprox {__version__} seed=- cmd=bounds")


def test_bounds_thm34_row(capsys):
    code, out, _ = run(capsys, "bounds", "--table", "thm34", "--n", "3", "--k", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "n,k,value"
    assert lines[2] == "3,8,6"


def test_synth_apply_round_trip(tmp_path, capsys):
    rng = np.random.default_rng(0)
    target = random_state(3, rng)
    state_file = tmp_path / "s.qstate"
    write_state(state_file, target)
    circuit_file = tmp_path / "c.qcircuit"

    code, out, _ = run(
        capsys, "synth-state", "--state", str(state_file), "--out", str(circuit_file)
    )
    assert code == 0
    assert "residual" in out

    out_file = tmp_path / "result.qstate"
    code, _, _ = run(
        capsys,
        "apply",
        "--circuit",
        str(circuit_file),
        "--state",
        "zero",
        "--n",
        "3",
        "--out",
        str(out_file),
    )
    assert code == 0
    produced = read_state(out_file)
    assert np.linalg.norm(produced.amps - target.amps) <= 1e-9


def test_dist_between_states(tmp_path, capsys):
    rng = np.random.default_rng(1)
    a, b = random_state(2, rng), random_state(2, rng)
    fa, fb = tmp_path / "a.qstate", tmp_path / "b.qstate"
    write_state(fa, a)
    write_state(fb, b)
    code, out, _ = run(
        capsys, "dist", "--metric", "tv-states", "--a", str(fa), "--b", str(fb), "--l", "1"
    )
    assert code == 0
    value = float(out.splitlines()[-1].split(",")[-1])
    from qcapprox.metrics import tv_states

    assert abs(value - tv_states(a, b, 1)) < 1e-12


def test_dist_circuit_vs_matrix_file(tmp_path, capsys):
    rng = np.random.default_rng(2)
    u = haar_unitary(4, rng)
    from qcapprox.synthesis import OrthoSeq, synthesize_transitive

    seq = OrthoSeq(2, tuple(StateVec(2, u[:, i]) for i in range(2)))
    circuit_file = tmp_path / "u.qcircuit"
    write_circuit(circuit_file, synthesize_transitive(seq).circuit)

    matrix_file = tmp_path / "u.mat"
    matrix_file.write_text(format_matrix(u))
    code, out, _ = run(
        capsys,
        "dist",
        "--metric",
        "weak2",
        "--a",
        str(circuit_file),
        "--b",
        str(matrix_file),
        "--k",
        "2",
    )
    assert code == 0
    assert float(out.splitlines()[-1].split(",")[-1]) <= 1e-7


def test_synth_unitary(tmp_path, capsys):
    rng = np.random.default_rng(3)
    u = haar_unitary(8, rng)
    files = []
    for i in range(2):
        f = tmp_path / f"t{i}.qstate"
        write_state(f, StateVec(3, u[:, i]))
        files.append(str(f))
    circuit_file = tmp_path / "u.qcircuit"
    code, out, _ = run(
        capsys, "synth-unitary", "--targets", *files, "--out", str(circuit_file)
    )
    assert code == 0
    header = out.splitlines()[1].split(",")
    row = out.splitlines()[2].split(",")
    table = dict(zip(header, row))
    assert table["n"] == "3" and table["k"] == "2"
    assert float(table["residual"]) <= 1e-7
    assert int(table["phase_gates"]) <= 2


def test_mc_byte_determinism(capsys):
    argv = [
        "mc", "--experiment", "simplex-ball", "--N", "4", "--eps", "0.25",
        "--samples", "20000", "--seed", "7",
    ]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.splitlines()[1].endswith(",pass")


def test_mc_sphere_ball(capsys):
    code, out, _ = run(
        capsys, "mc", "--experiment", "sphere-ball", "--m", "3", "--eps", "0.5",
        "--samples", "50000", "--seed", "11",
    )
    assert code == 0
    header = out.splitlines()[1].split(",")
    row = out.splitlines()[2].split(",")
    table = dict(zip(header, row))
    assert table["pass"] == "True"
    assert float(table["estimate"]) <= float(table["bound"])


def test_net_count(capsys):
    code, out, _ = run(capsys, "net", "--g", "1", "--delta", "1.0", "--count")
    assert code == 0
    header = out.splitlines()[1].split(",")
    row = out.splitlines()[2].split(",")
    table = dict(zip(header, row))
    assert table["exact"] == "1679616"
    assert table["paper_bound"] == "65536"
    assert table["axis_points"] == "6"


def test_net_count_beyond_digit_cap(capsys):
    code, _, err = run(capsys, "net", "--g", "3", "--delta", "0.1", "--count")
    assert code == 1
    assert "error:" in err
    assert "Traceback" not in err


def test_net_point_and_nearest(tmp_path, capsys):
    code, out, _ = run(capsys, "net", "--g", "1", "--delta", "1.0", "--point", "100")
    assert code == 0
    rows = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert len(rows) == 2 and len(rows[0].split()) == 2

    u = haar_unitary(2, np.random.default_rng(4))
    f = tmp_path / "u.mat"
    f.write_text(format_matrix(u))
    code, out, _ = run(
        capsys, "net", "--g", "1", "--delta", "1.0", "--nearest", str(f)
    )
    assert code == 0
    dist = float(out.splitlines()[-1].split(",")[-1])
    assert dist <= 1.0 + 1e-9


def test_bounds_sweep(capsys):
    code, out, _ = run(
        capsys, "bounds", "--table", "thm51", "--n", "8", "--g", "2", "--b", "4",
        "--q", "4", "--D", "1048576", "--sweep", "b=2:10:4",
    )
    assert code == 0
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert len(lines) == 4  # header + three swept rows
    assert lines[0].endswith("log2_bound,clipped")
    assert _sweep_values("b=2:10:4") == ("b", range(2, 11, 4))
    assert _sweep_values("q=1.5:2:0.25") == ("q", [1.5, 1.75, 2.0])
    with pytest.raises(DomainError):  # a step below the float spacing never advances
        _sweep_values("q=1e20:1.0000000000000002e20:1")


def test_bounds_text_format(capsys):
    code, out, _ = run(
        capsys, "bounds", "--table", "thm34", "--n", "3", "--k", "8",
        "--format", "text",
    )
    assert code == 0
    assert "value = 6" in out


def test_advantage_flow(tmp_path, capsys):
    problem = DecisionProblem(2, {b: b & 1 for b in range(4)})
    pf = tmp_path / "p.qproblem"
    pf.write_text(format_problem(problem))
    cf = tmp_path / "id.qcircuit"
    write_circuit(cf, Circuit(2, ()))
    code, out, _ = run(
        capsys, "advantage", "--circuit", str(cf), "--problem", str(pf)
    )
    assert code == 0
    header = out.splitlines()[1].split(",")
    row = out.splitlines()[2].split(",")
    table = dict(zip(header, row))
    assert table["kind"] == "decision"
    assert float(table["p_star"]) == 1.0
    assert table["q"] == "1"


IDENTITY = "1:0 0:0 0:0 1:0"
DEFECT = "2:0 0:0 0:0 1:0"


def _circuit_file(tmp_path, name, *gate_lines):
    path = tmp_path / f"{name}.qcircuit"
    path.write_text("qcircuit v1\nn=2\n" + "".join(f"{ln}\n" for ln in gate_lines))
    return ["apply", "--circuit", str(path), "--state", "zero", "--n", "2"]


def test_exit_code_domain_error(tmp_path, capsys):
    nan_matrix = tmp_path / "nan.mat"
    nan_matrix.write_text("nan:0 0:0\n0:0 1:0\n")
    one_qubit, two_qubit = tmp_path / "one.mat", tmp_path / "two.mat"
    one_qubit.write_text(format_matrix(np.eye(2)))
    two_qubit.write_text(format_matrix(np.eye(4)))
    unequal = ["--a", str(one_qubit), "--b", str(two_qubit)]
    cascade = fileio.format_circuit(
        prepare_state(sample_haar_state(11, np.random.default_rng(5))).circuit).splitlines()
    cascade[2001] = " ".join(cascade[2001].split()[:3] + [DEFECT])  # gate line 2000
    cascade_file = tmp_path / "cascade.qcircuit"
    cascade_file.write_text("\n".join(cascade) + "\n")
    thm41 = ["bounds", "--table", "thm41", "--n", "6", "--k", "4", "--g", "2", "--b", "100"]
    thm51 = ["bounds", "--table", "thm51", "--n", "8", "--g", "2", "--b", "4", "--D", "256"]
    cases = [
        ["bounds", "--table", "thm51", "--n", "8", "--g", "1", "--b", "4", "--q", "4", "--D", "256"],
        thm41 + ["--eps", "nan", "--alpha", "0.5"],
        thm41 + ["--eps", "0.1", "--alpha", "nan"],
        thm51 + ["--q", "nan"],
        ["mc", "--experiment", "simplex-ball", "--N", "4", "--eps", "nan", "--samples", "10"],
        # chunk buffers over measure.MC_BUFFER_CAP, refused before they exist
        ["mc", "--experiment", "simplex-ball", "--N", "1000000000", "--eps", "0.25",
         "--samples", "100000"],
        ["mc", "--experiment", "sphere-ball", "--m", "100000000", "--eps", "0.5",
         "--samples", "10"],
        ["net", "--g", "1", "--delta", "1", "--rho", "nan", "--count"],
        ["dist", "--metric", "frobenius", "--a", str(nan_matrix), "--b", str(nan_matrix)],
        ["dist", "--metric", "weak2", "--a", str(nan_matrix), "--b", str(nan_matrix), "--k", "1"],
        ["dist", "--metric", "two", "--a", str(nan_matrix), "--b", str(nan_matrix)],
        # matrices of different shapes, refused before they are subtracted
        ["dist", "--metric", "frobenius", *unequal],
        ["dist", "--metric", "two", *unequal],
        ["dist", "--metric", "weak2", *unequal, "--k", "1"],
        # sweeps refused before any value is built
        thm51 + ["--q", "4", "--sweep", "b=2:1000000000000000000:1"],
        thm41 + ["--eps", "0.1", "--alpha", "0.5", "--sweep", "eps=0.1:inf:0.1"],
        thm41 + ["--eps", "0.1", "--alpha", "0.5", "--sweep", "k=1:x:1"],
        # circuit files: the first bad line decides
        _circuit_file(tmp_path, "nonunitary_first", f"ctrl 0:1 1 {DEFECT}", "warp 0"),
        _circuit_file(tmp_path, "nan", f"ctrl 0:1 1 nan:0 0:0 0:0 1:0"),
        _circuit_file(tmp_path, "polarity", f"ctrl 0:2 1 {IDENTITY}"),
        _circuit_file(tmp_path, "duplicate", f"ctrl 0:1,0:0 1 {IDENTITY}"),
        _circuit_file(tmp_path, "negative", f"ctrl -1:1 1 {IDENTITY}"),
        _circuit_file(tmp_path, "beyond_n", f"ctrl 0:1 2 {IDENTITY}"),
        _circuit_file(tmp_path, "iw_nan", "iw nan"),
        _circuit_file(tmp_path, "iw_inf", f"ctrl 0:1 1 {IDENTITY}", "iw inf"),
        ["dist", "--metric", "two", "--a", str(tmp_path / "iw_nan.qcircuit"),
         "--b", str(tmp_path / "iw_inf.qcircuit")],
        ["dist", "--metric", "frobenius", "--a", str(tmp_path / "iw_inf.qcircuit"),
         "--b", str(tmp_path / "iw_inf.qcircuit")],
        ["dist", "--metric", "weak2", "--a", str(tmp_path / "iw_nan.qcircuit"),
         "--b", str(tmp_path / "iw_nan.qcircuit"), "--k", "1"],
        ["apply", "--circuit", str(cascade_file), "--state", "zero", "--n", "11"],
    ]
    for argv in cases:
        code, _, err = run(capsys, *argv)
        assert code == 1, argv
        assert err.startswith("error:") and err.count("\n") == 1, argv


def test_exit_code_missing_file(capsys):
    code, _, err = run(
        capsys, "apply", "--circuit", "/nonexistent/c.qcircuit", "--state", "zero", "--n", "1"
    )
    assert code == 2
    assert "error:" in err


def test_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.qcircuit"
    bad.write_text("qcircuit v1\nn=2\nwarp 0\n")
    code, _, err = run(
        capsys, "apply", "--circuit", str(bad), "--state", "zero", "--n", "2"
    )
    assert code == 2
    assert "error:" in err
    repeated = tmp_path / "repeated.qproblem"
    repeated.write_text("qproblem v1\nn=2\nkind=decision\n00 0\n00 1\n")
    identity = tmp_path / "id.qcircuit"
    write_circuit(identity, Circuit(2, ()))
    for argv in (
        _circuit_file(tmp_path, "malformed_first", "warp 0", f"ctrl 0:1 1 {DEFECT}"),
        _circuit_file(tmp_path, "entry_before_polarity", "ctrl 0:2 1 1:0 0:0 0:0 x:0"),
        _circuit_file(tmp_path, "range_after_every_line", f"ctrl 0:1 2 {IDENTITY}", "warp 0"),
        # an input listed twice: the last value would silently win
        ["advantage", "--circuit", str(identity), "--problem", str(repeated)],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error:") and err.count("\n") == 1, argv


def test_exit_code_undecodable_file(tmp_path, capsys):
    bad = tmp_path / "latin1.qcircuit"
    bad.write_bytes("qcircuit v1\nn=1\n# caf\xe9\n".encode("latin-1"))
    code, _, err = run(capsys, "apply", "--circuit", str(bad), "--state", "zero", "--n", "1")
    assert code == 2
    assert "error:" in err
    code, _, err = run(capsys, "dist", "--metric", "two", "--a", str(bad), "--b", str(bad))
    assert code == 2


def test_zero_state_needs_n(capsys, tmp_path):
    cf = tmp_path / "id.qcircuit"
    write_circuit(cf, Circuit(1, ()))
    code, _, err = run(capsys, "apply", "--circuit", str(cf), "--state", "zero")
    assert code == 1
    assert "needs --n" in err


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["bounds", "--table", "thm34", "--n", "3", "--k", "8", "--frobnicate"])


def test_state_output_to_stdout(capsys, tmp_path):
    s = StateVec.zero(1)
    sf = tmp_path / "z.qstate"
    write_state(sf, s)
    cf = tmp_path / "id.qcircuit"
    write_circuit(cf, Circuit(1, ()))
    code, out, _ = run(capsys, "apply", "--circuit", str(cf), "--state", str(sf))
    assert code == 0
    body = "\n".join(ln for ln in out.splitlines() if not ln.startswith("#")) + "\n"
    assert body == format_state(s)


@pytest.mark.parametrize("command", ["synth-state", "synth-unitary"])
def test_synth_out_formats_the_circuit_once(tmp_path, capsys, monkeypatch, command):
    rng = np.random.default_rng(6)
    u = haar_unitary(8, rng)
    files = []
    for i in range(2):
        f = tmp_path / f"t{i}.qstate"
        write_state(f, StateVec(3, u[:, i]))
        files.append(str(f))
    calls = []

    def counted(circuit):
        calls.append(circuit)
        return format_circuit(circuit)

    format_circuit = fileio.format_circuit
    monkeypatch.setattr(fileio, "format_circuit", counted)
    inputs = ["--state", files[0]] if command == "synth-state" else ["--targets", *files]
    out_file = tmp_path / "c.qcircuit"
    code, _, _ = run(capsys, command, *inputs, "--out", str(out_file))
    assert code == 0 and len(calls) == 1
    assert out_file.read_text() == format_circuit(calls[0])
    code, out, _ = run(capsys, command, *inputs)  # to stdout
    assert code == 0 and len(calls) == 2
    assert format_circuit(calls[1]) in out


def test_parser_reused_across_calls(capsys, monkeypatch):
    thm45 = ["bounds", "--table", "thm45", "--n", "6", "--k", "4", "--l", "2", "--g", "2",
             "--b", "4", "--eps", "0.1", "--alpha", "0.5"]
    calls = [
        thm45 + ["--sharp", "--format", "text"],
        ["bounds", "--table", "thm34", "--n", "3", "--frobnicate"],  # argparse error
        thm45,  # --sharp and --format text must not carry over
        ["mc", "--experiment", "simplex-ball", "--N", "4", "--eps", "0.25", "--samples", "100"],
    ]

    def results():
        got = []
        for argv in calls:
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            got.append((code, captured.out, captured.err))
        return got

    assert cli._build_parser() is cli._build_parser()
    cached = results()
    assert [code for code, _, _ in cached] == [0, 2, 0, 0]
    assert "sharp = True" in cached[0][1] and ",False," in cached[2][1]
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)  # a fresh parser per call
    assert results() == cached
