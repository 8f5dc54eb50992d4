import collections
import contextlib
import io
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from optikit import cli, emoptics, quantum, rayoptics, resonator, sysdesc
from optikit.core import Mat2, mat2_mul

SAMPLES = Path(__file__).resolve().parent.parent / "samples"


def run(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGoldenOutputs:
    def test_matrix_single_space(self, capsys):
        code, out, err = run(capsys, "matrix", SAMPLES / "single_space.osys")
        assert code == 0 and err == ""
        assert out == "1 2\n0 1\ndet 1\n"

    def test_matrix_biconvex(self, capsys):
        code, out, _ = run(capsys, "matrix", SAMPLES / "biconvex.osys")
        assert code == 0
        assert out == "-1 0\n-9.83333333333 -1\ndet 1\n"

    def test_trace_table(self, capsys):
        code, out, _ = run(
            capsys, "trace", SAMPLES / "single_space.osys", "--y0", "1.0", "--theta0", "0.1"
        )
        assert code == 0
        assert out == "index y theta\n0 1 0.1\n1 1.2 0.1\n"

    def test_trace_csv(self, capsys):
        code, out, _ = run(
            capsys, "trace", SAMPLES / "single_space.osys",
            "--y0", "1.0", "--theta0", "0.1", "--format", "csv",
        )
        assert code == 0
        assert out == "index,y,theta\n0,1,0.1\n1,1.2,0.1\n"

    def test_stability_stable(self, capsys):
        code, out, _ = run(capsys, "stability", SAMPLES / "fp_stable.res")
        assert code == 0
        assert out == "det 1\nhalf_trace -0.5\nverdict stable\n"

    def test_stability_marginal(self, capsys):
        code, out, _ = run(capsys, "stability", SAMPLES / "fp_marginal.res")
        assert code == 0
        assert out == "det 1\nhalf_trace -1\nverdict marginal\n"

    def test_stability_unstable_with_oracle(self, capsys):
        code, out, _ = run(
            capsys, "stability", SAMPLES / "fp_unstable.res", "--oracle", "--round-trips", "200"
        )
        assert code == 0
        assert out == (
            "det 1\n"
            "half_trace 3.5\n"
            "verdict unstable\n"
            "oracle_max_y 2139295485.8\n"
            "oracle_max_theta 3096017511.84\n"
            "oracle_diverged true\n"
            "agreement true\n"
        )

    def test_beam_waist_through_free_space(self, capsys):
        code, out, _ = run(
            capsys, "beam", SAMPLES / "single_space.osys",
            "--lambda", "1e-6", "--w", "1e-3", "--R", "inf",
        )
        assert code == 0
        assert out == (
            "q_in 0 3.14159265359\n"
            "M 1 2 0 1\n"
            "q_out 2 3.14159265359\n"
            "R 6.93480220054\n"
            "w 0.00118544706106\n"
        )

    def test_beam_identity_system_returns_waist(self, capsys):
        code, out, _ = run(
            capsys, "beam", SAMPLES / "identity.osys",
            "--lambda", "1e-6", "--w", "1e-3", "--R", "inf",
        )
        assert code == 0
        assert out == (
            "q_in 0 3.14159265359\n"
            "M 1 0 0 1\n"
            "q_out 0 3.14159265359\n"
            "R inf\n"
            "w 0.001\n"
        )

    def test_interface_normal_incidence(self, capsys):
        code, out, _ = run(capsys, "interface", "--n1", "1", "--n2", "1.5", "--theta-deg", "0")
        assert code == 0
        assert out == (
            "theta_t_deg 0\n"
            "r_amp 0.2\n"
            "t_amp 1.2\n"
            "fresnel_s_r -0.2\n"
            "fresnel_s_t 0.8\n"
            "fresnel_p_r 0.2\n"
            "fresnel_p_t 0.8\n"
            "max_residual 2.48253415325e-16\n"
            "plane_of_incidence true\n"
            "reflection_law true\n"
        )

    def test_interface_oblique(self, capsys):
        code, out, _ = run(capsys, "interface", "--n1", "1", "--n2", "1.5", "--theta-deg", "30")
        assert code == 0
        assert out.startswith("theta_t_deg 19.4712206345\nr_amp 0.158899800341\nt_amp 1.15889980034\n")
        assert "plane_of_incidence true\nreflection_law true\n" in out

    def test_quantum_unit_mode(self, capsys):
        code, out, _ = run(capsys, "quantum", "--omega", "1", "--dim", "32")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "ground_energy 0.5"
        assert lines[1] == "eigenvalues 0.5 1.5 2.5 3.5 4.5 5.5 6.5 7.5"
        assert lines[3] == "self_adjoint_q 0"
        assert lines[4] == "self_adjoint_p 0"
        assert lines[5] == "self_adjoint_H 0"

    def test_quantum_scaled_mode(self, capsys):
        code, out, _ = run(capsys, "quantum", "--omega", "2.5", "--dim", "16")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "ground_energy 1.25"
        assert lines[1] == "eigenvalues 1.25 3.75 6.25 8.75 11.25 13.75 16.25 18.75"


class TestDeterminism:
    def test_identical_invocations_are_byte_identical(self, capsys):
        argv = ["interface", "--n1", "1.2", "--n2", "1.7", "--theta-deg", "41.5", "--seed", "3"]
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_stability_oracle_deterministic(self, capsys):
        argv = ["stability", str(SAMPLES / "fp_stable.res"), "--oracle"]
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second


class TestExitCodes:
    def test_parse_error_is_usage_failure(self, capsys):
        code, out, err = run(capsys, "matrix", SAMPLES / "malformed.osys")
        assert code == 2 and out == ""
        assert "3:16" in err
        assert "d=" in err

    def test_invalid_system_is_domain_failure(self, capsys):
        code, out, err = run(capsys, "matrix", SAMPLES / "invalid_index.osys")
        assert code == 1 and out == ""
        assert "0 < n" in err

    def test_wrong_document_kind(self, capsys):
        code, _, err = run(capsys, "stability", SAMPLES / "single_space.osys")
        assert code == 2
        assert "[resonator]" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "matrix", SAMPLES / "does_not_exist.osys")
        assert code == 2

    def test_beam_flag_conflict(self, capsys):
        code, _, err = run(
            capsys, "beam", SAMPLES / "single_space.osys", "--lambda", "1e-6",
            "--w", "1e-3", "--R", "inf", "--q-re", "0", "--q-im", "3.14",
        )
        assert code == 2

    def test_beam_flags_missing(self, capsys):
        code, _, _ = run(capsys, "beam", SAMPLES / "single_space.osys", "--lambda", "1e-6")
        assert code == 2

    def test_beam_unphysical_q(self, capsys):
        code, _, err = run(
            capsys, "beam", SAMPLES / "single_space.osys", "--lambda", "1e-6",
            "--q-re", "0", "--q-im", "-1",
        )
        assert code == 1
        assert "Im(q)" in err

    def test_interface_total_internal_reflection(self, capsys):
        code, _, err = run(capsys, "interface", "--n1", "1.5", "--n2", "1", "--theta-deg", "60")
        assert code == 1
        assert "total internal reflection" in err

    def test_interface_underflowed_denominator_is_domain_failure(self, capsys):
        # n2 cos(theta_i) + n1 cos(theta_t) underflowed to 0: a ZeroDivisionError traceback
        code, out, err = run(capsys, "interface", "--n1=5e-324", "--n2=5e-324", "--theta-deg=70")
        assert code == 1 and out == ""
        assert err == "error: the amplitude denominator underflows to 0 at n1 = 5e-324, n2 = 5e-324\n"

    def test_quantum_nonfinite_omega_is_domain_failure(self, capsys):
        code, out, err = run(capsys, "quantum", "--omega", "inf")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "finite" in err

    def test_nonfinite_file_value_is_domain_failure(self, capsys, tmp_path):
        path = tmp_path / "inf.osys"
        path.write_text("[system]\nfreespace n=1e999 d=0.1\ninterface plane\nfreespace n=1.5 d=0.1\n")
        code, out, err = run(capsys, "matrix", path)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "n finite" in err

    @pytest.mark.parametrize("flag", ["--y0", "--theta0"])
    def test_stability_nonfinite_source_is_usage_error(self, capsys, flag):
        code, out, err = run(capsys, "stability", SAMPLES / "fp_stable.res", "--oracle", flag, "nan")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "finite" in err

    def test_beam_nonfinite_wavelength_is_domain_failure(self, capsys):
        code, out, err = run(
            capsys, "beam", SAMPLES / "single_space.osys", "--lambda", "inf", "--w", "1e-3", "--R", "inf"
        )
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "finite" in err

    @pytest.mark.parametrize(
        "argv",
        [
            # w*w underflows to 0 in q_from_geometry (was ZeroDivisionError)
            ("beam", SAMPLES / "single_space.osys", "--lambda", "1e-6", "--w", "1e-300", "--R", "inf"),
            # 1/q = 0 in q_from_geometry (was complex division by zero)
            ("beam", SAMPLES / "single_space.osys", "--lambda", "1e-6", "--w", "inf", "--R", "inf"),
            # w = 5.6e454 overflows in geometry_from_q, where Im(1/q) underflows to 0
            ("beam", SAMPLES / "single_space.osys", "--lambda", "1e-6", "--q-re", "1e308", "--q-im", "1e-300"),
            # omega**2 overflows in make_single_mode (was OverflowError)
            ("quantum", "--omega", "1e300"),
        ],
    )
    def test_float_range_overflow_is_domain_failure(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ")

    def test_beam_q_near_float_range_reads_flat(self, capsys):
        # 1/q is 0 here, since complex division overflows inside it (was "error: 1/q underflows")
        code, out, err = run(
            capsys, "beam", SAMPLES / "single_space.osys", "--lambda", "1e-6", "--q-re", "1e308", "--q-im", "1e308"
        )
        assert (code, err) == (0, "")
        assert out.splitlines()[-2:] == ["R inf", "w 7.97884560803e+150"]

    def test_beam_denominator_beyond_float_range_is_domain_failure(self, capsys, tmp_path):
        # abs() of the Moebius denominator overflowed in core.mobius (was OverflowError)
        path = tmp_path / "fold.osys"
        path.write_text(
            "[system]\nfreespace n=0.5 d=0.1\ninterface spherical R=0.5\nfreespace n=1.5 d=0.2\n"
            "interface plane kind=reflected\nfreespace n=1 d=1\n"
        )
        code, out, err = run(capsys, "beam", path, "--lambda=1e-6", "--q-re=1e308", "--q-im=1e308")
        assert code == 1 and out == ""
        assert err.startswith("error: ")

    def test_trace_tripwire_is_an_error_line(self, capsys, monkeypatch):
        # the composed matrix disagrees with the stepper (was "internal error:" without "error: ")
        compose = rayoptics.system_composition
        monkeypatch.setattr(
            rayoptics, "system_composition", lambda system: mat2_mul(Mat2(1.0, 1.0, 0.0, 1.0), compose(system))
        )
        code, out, err = run(capsys, "trace", SAMPLES / "single_space.osys", "--y0", "1", "--theta0", "0.1")
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_quantum_dim_too_small(self, capsys):
        code, _, _ = run(capsys, "quantum", "--omega", "1", "--dim", "1")
        assert code == 2

    def test_interface_angle_out_of_range(self, capsys):
        code, _, _ = run(capsys, "interface", "--n1", "1", "--n2", "1.5", "--theta-deg", "95")
        assert code == 2

    def test_unknown_flag(self, capsys):
        code = cli.main(["matrix", str(SAMPLES / "single_space.osys"), "--bogus"])
        capsys.readouterr()
        assert code == 2

    def test_no_arguments(self, capsys):
        code = cli.main([])
        capsys.readouterr()
        assert code == 2

    def test_invalid_resonator_names_the_element(self, capsys, tmp_path):
        path = tmp_path / "x.res"
        path.write_text("[resonator]\ninterface spherical R=0\nfreespace n=1.0 d=0.5\ninterface spherical R=1.0\n")
        code, out, err = run(capsys, "stability", path)
        assert code == 1 and out == ""
        assert err == "error: left mirror: violates R != 0 (spherical interface with R = 0)\n"

    def test_interface_overflow_is_domain_failure(self, capsys):
        # t_amp overflowed to inf and max_residual read 0, after a numpy warning
        code, out, err = run(
            capsys, "interface", "--n1", "1", "--n2", "1.5", "--theta-deg", "30", "--a", "1e308", "--samples", "5"
        )
        assert code == 1 and out == ""
        assert err.startswith("error: ") and "overflow" in err and "Warning" not in err

    @pytest.mark.parametrize(
        "argv, stdout_line, limit",
        [
            (("interface", "--n1", "1", "--n2", "1.5", "--theta-deg", "30", "--a", "1e10", "--samples", "5"),
             "max_residual 8.25685913922e-05", "1e-09"),
            (("quantum", "--omega", "1e10", "--hbar", "1e10", "--dim", "4"), "ground_energy 5e+19", "1e-10"),
        ],
    )
    def test_failed_verdict_says_why(self, capsys, argv, stdout_line, limit):
        code, out, err = run(capsys, *argv)
        assert code == 1 and stdout_line in out.splitlines()
        assert err.startswith("error: ") and err.count("\n") == 1 and limit in err

    def test_verdict_is_data_not_error(self, capsys):
        code, out, _ = run(capsys, "stability", SAMPLES / "fp_unstable.res")
        assert code == 0
        assert "verdict unstable" in out


def test_quantum_runs_one_eigen_pass(capsys, monkeypatch):
    calls = []
    eigenvalues = quantum.hermitian_eigenvalues
    monkeypatch.setattr(quantum, "hermitian_eigenvalues", lambda op: calls.append(op) or eigenvalues(op))
    code, out, _ = run(capsys, "quantum", "--omega", "1")
    assert code == 0 and out.startswith("ground_energy 0.5\n")
    assert len(calls) == 1


@pytest.mark.parametrize("omega, hbar, dim", [(1.0, 1.0, 2), (1.0, 1.0, 32), (2.5, 0.3, 17), (1e-3, 7.0, 512),
                                              (3.0, 1e-5, cli.MAX_DIM)])
def test_quantum_peaks_are_numpys(capsys, omega, hbar, dim):
    # the peaks are taken in plain Python; numpy's max of abs over the same bands gives the same floats
    def peak(bands):
        return np.max(np.abs(np.concatenate(list(bands))), initial=0.0)

    sm = quantum.make_single_mode(omega, hbar, dim)
    block = {k: np.asarray(band[:-1]) for k, band in quantum.commutator(sm.q, sm.p).bands.items()}
    block[0] = block[0] - 1j * hbar
    peaks = [peak(block.values())] + [peak((op - op.adjoint()).bands.values()) for op in (sm.q, sm.p, sm.H)]
    code, out, _ = run(capsys, "quantum", "--omega", omega, "--hbar", hbar, "--dim", dim)
    assert code == 0
    labels = ["commutator_max_dev", "self_adjoint_q", "self_adjoint_p", "self_adjoint_H"]
    assert out.splitlines()[2:] == [f"{label} {cli._fmt(x)}" for label, x in zip(labels, peaks)]


class TestResourceCaps:
    """Size flags above their caps are usage errors, caught before any work."""

    @pytest.fixture(autouse=True)
    def forbid_work(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("an over-cap input reached the library")

        monkeypatch.setattr(emoptics, "max_boundary_residual", forbidden)
        monkeypatch.setattr(emoptics, "reference_max_residual", forbidden)
        monkeypatch.setattr(quantum, "make_single_mode", forbidden)
        # the CLI reads the oracle from its module when the command runs
        monkeypatch.setattr(resonator, "ray_bound_oracle", forbidden)

    @pytest.mark.parametrize(
        "argv",
        [
            ("interface", "--n1", "1", "--n2", "1.5", "--theta-deg", "0",
             "--samples", cli.MAX_SAMPLES + 1),
            ("quantum", "--omega", "1", "--dim", cli.MAX_DIM + 1),
            ("stability", SAMPLES / "fp_stable.res", "--oracle",
             "--round-trips", cli.MAX_ROUND_TRIPS + 1),
        ],
    )
    def test_over_cap_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "must be <=" in err


class TestFileCap:
    """`_load` reads at most `MAX_FILE_CHARS` characters of a file, so that parse's memory stays bounded."""

    def test_over_cap_is_usage_error(self, capsys, tmp_path, monkeypatch):
        text = (SAMPLES / "single_space.osys").read_text()
        path = tmp_path / "big.osys"
        path.write_text(text)
        monkeypatch.setattr(cli, "MAX_FILE_CHARS", len(text))
        code, out, _ = run(capsys, "matrix", path)  # a file at the cap is read whole
        assert code == 0 and out
        monkeypatch.setattr(cli, "MAX_FILE_CHARS", len(text) - 1)
        assert run(capsys, "matrix", path) == (2, "", f"error: {path}: larger than {len(text) - 1} characters\n")

    def test_cap_counts_characters_not_bytes(self, capsys, tmp_path, monkeypatch):
        # each comment character is two bytes in UTF-8: a cap that falls inside one is
        # still the cap's error, not a decoding error
        text = "[system]\n# " + "\u00e9" * 40 + "\nfreespace n=1 d=1\n"
        path = tmp_path / "accents.osys"
        path.write_text(text, encoding="utf-8")
        monkeypatch.setattr(cli, "MAX_FILE_CHARS", len(text))
        assert run(capsys, "matrix", path)[0] == 0  # more bytes than the cap, as many characters
        monkeypatch.setattr(cli, "MAX_FILE_CHARS", 20)
        assert run(capsys, "matrix", path) == (2, "", f"error: {path}: larger than 20 characters\n")

    def test_text_that_is_not_utf8_is_usage_error(self, capsys, tmp_path):
        # the decoder's UnicodeDecodeError escaped as a traceback
        path = tmp_path / "latin1.osys"
        path.write_bytes("[system]\n# caf\xe9\nfreespace n=1 d=1\n".encode("latin-1"))
        code, out, err = run(capsys, "matrix", path)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xe9")


_REAL = ["0", "-0", "inf", "-inf", "nan", "5e-324", "-5e-324", "1e-300", "1e308", "-1e308", "-1", "1", "1e-6"]
# sizes stay at most 17, or exceed every cap and are rejected before any work
_SIZE = ["-1", "0", "1", "2", "17", "1.5", "2000000"]
_VALUES = {
    "--format": ["table", "csv", "tsv"],
    "--oracle": None,
    "--round-trips": _SIZE,
    "--samples": _SIZE,
    "--seed": _SIZE,
    "--dim": _SIZE,
}
# flags in one group are given together, so that valid invocations are common
_GROUPS = {
    "matrix": [],
    "trace": [("--y0", "--theta0"), ("--format",)],
    "stability": [("--oracle",), ("--round-trips",), ("--y0",), ("--theta0",)],
    "beam": [("--lambda",), ("--q-re", "--q-im"), ("--R", "--w")],
    "interface": [("--n1", "--n2", "--theta-deg"), ("--a",), ("--samples",), ("--seed",)],
    "quantum": [("--omega",), ("--dim",), ("--hbar",)],
}
_FILES = sorted(str(p) for p in SAMPLES.iterdir()) + [str(SAMPLES / "missing.osys")]


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_GROUPS)))
    argv = [command]
    if command in ("matrix", "trace", "stability", "beam"):
        argv.append(draw(st.sampled_from(_FILES)))
    for group in _GROUPS[command]:
        if draw(st.booleans()):
            for flag in group:
                values = _VALUES.get(flag, _REAL)
                # --flag=value, so that argparse reads "-inf" as a value
                argv.append(flag if values is None else f"{flag}={draw(st.sampled_from(values))}")
    return argv


class TestArgvFuzz:
    """Every invocation exits 0, 1 or 2, raises nothing, and a nonzero exit says why."""

    @settings(max_examples=300, deadline=None)
    @given(argv=_argvs())
    @example(argv=["beam", str(SAMPLES / "single_space.osys"), "--lambda=1e-6", "--w=1e-300", "--R=inf"])
    @example(argv=["beam", str(SAMPLES / "single_space.osys"), "--lambda=1e-6", "--w=inf", "--R=inf"])
    @example(argv=["beam", str(SAMPLES / "single_space.osys"), "--lambda=1e-6", "--q-re=1e308", "--q-im=1e308"])
    @example(argv=["quantum", "--omega=1e300"])
    @example(argv=["interface", "--n1=1", "--n2=1.5", "--theta-deg=30", "--a=1e10", "--samples=5"])
    @example(argv=["quantum", "--omega=1e10", "--hbar=1e10", "--dim=4"])
    def test_exit_codes(self, argv):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 1, 2)
        if code != 0:
            assert "error: " in err.getvalue()


class TestValidateOnce:
    """Each element of a file is checked once per run, also with --oracle, and
    once for any number of library calls on one system.  An element is its
    object at its place in the report: every plane interface is one `Plane()`."""

    INNER_RES = (
        "[resonator]\ninterface spherical R=1.0\nfreespace n=1.0 d=0.1\ninterface spherical R=2.0\n"
        "freespace n=1.5 d=0.05\ninterface plane kind=reflected\nfreespace n=1.0 d=0.3\n"
        "interface spherical R=1.5\n"
    )
    PLANES_SYS = (
        "[system]\nfreespace n=1.0 d=0.1\ninterface plane\nfreespace n=1.5 d=0.2\ninterface plane kind=reflected\n"
        "freespace n=1.2 d=0.05\ninterface spherical R=0.5\nfreespace n=1.0 d=0.3\n"
    )
    PLANES_RES = (
        "[resonator]\ninterface plane\nfreespace n=1.0 d=0.1\ninterface plane\nfreespace n=1.5 d=0.2\n"
        "interface plane\nfreespace n=1.0 d=0.3\ninterface spherical R=1.0\n"
    )

    @pytest.fixture
    def checks(self, monkeypatch):
        """Calls of the clause function per element object and index, through any module that holds it."""
        counts = collections.Counter()
        clause = rayoptics.element_violations

        def counting(element, index, *types):
            counts[(id(element), index)] += 1
            return clause(element, index, *types)

        for name, module in list(sys.modules.items()):
            if name.startswith("optikit") and getattr(module, "element_violations", None) is clause:
                monkeypatch.setattr(module, "element_violations", counting)
        return counts

    @pytest.mark.parametrize(
        "argv, times",
        [
            (["matrix", "{osys}"], 1),
            (["trace", "{osys}", "--y0", "1e-3", "--theta0", "0"], 1),
            (["beam", "{osys}", "--lambda", "1e-6", "--w", "1e-3", "--R", "inf"], 1),
            (["stability", "{res}"], 1),
            (["stability", "{res}", "--oracle", "--round-trips", "20"], 1),
            (["stability", "{fp}", "--oracle", "--round-trips", "20"], 1),
            (["matrix", "{planes_sys}"], 1),
            (["trace", "{planes_sys}", "--y0", "1e-3", "--theta0", "0"], 1),
            (["stability", "{planes_res}", "--oracle", "--round-trips", "20"], 1),
        ],
    )
    def test_each_element_checked_once(self, capsys, tmp_path, checks, argv, times):
        files = {"osys": SAMPLES / "biconvex.osys", "fp": SAMPLES / "fp_stable.res"}
        for name, text in (("res", self.INNER_RES), ("planes_sys", self.PLANES_SYS), ("planes_res", self.PLANES_RES)):
            files[name] = tmp_path / f"{name}.txt"
            files[name].write_text(text)
        path = str(argv[1]).format(**files)
        code, _, _ = run(capsys, argv[0], path, *argv[2:])
        assert code == 0
        # one element per line of the canonical text, past its header
        elements = sysdesc.serialize(sysdesc.parse(Path(path).read_text())).count("\n") - 1
        assert len(checks) == elements
        assert set(checks.values()) == {times}

    def test_interleaved_values_are_each_checked_once(self, checks):
        """Two tuple-built systems and two tuple-built resonators, each called in
        turn A, B, A, B: every element of each is checked once, not once per turn."""
        rp = rayoptics
        t = rp.InterfaceKind.TRANSMITTED

        def components(n0):
            return (rp.OpticalComponent(rp.FreeSpace(n0, 0.1), rp.Spherical(0.5), t),
                    rp.OpticalComponent(rp.FreeSpace(1.5, 0.2), rp.Plane(), rp.InterfaceKind.REFLECTED))

        systems = [rp.OpticalSystem(components(n0), rp.FreeSpace(1.0, 0.3)) for n0 in (1.0, 1.2)]
        resonators = [resonator.Resonator(rp.Spherical(r), components(1.0), rp.FreeSpace(1.0, 0.3), rp.Spherical(r))
                      for r in (1.0, 2.0)]
        source = rp.RayState(1e-3, 1e-4)
        for _ in range(2):
            for system, res in zip(systems, resonators):
                assert rp.validate_system(system).ok
                rp.system_composition(system)
                rp.trace_ray(system, source)
                resonator.stability(res)
                resonator.ray_bound_oracle(res, source, 20)
        # a system: 2 per component and its terminal; a resonator: 2 per component, the cavity and both mirrors
        assert len(checks) == 2 * (2 * 2 + 1) + 2 * (2 * 2 + 3)
        assert set(checks.values()) == {1}

    def test_library_calls_share_one_check(self, checks):
        system = sysdesc.document_to_system(sysdesc.parse((SAMPLES / "biconvex.osys").read_text()))
        assert rayoptics.validate_system(system).ok
        rayoptics.system_composition(system)
        for y in (0.0, 1e-3, -2e-3):
            rayoptics.trace_ray(system, rayoptics.RayState(y, 1e-4))
        assert len(checks) == 2 * len(system.components) + 1
        assert set(checks.values()) == {1}
