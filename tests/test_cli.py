import collections
import contextlib
import io
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from optikit import cli, emoptics, quantum, rayoptics, sysdesc
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
            # 1/q underflows to 0 in geometry_from_q (was ZeroDivisionError)
            ("beam", SAMPLES / "single_space.osys", "--lambda", "1e-6", "--q-re", "1e308", "--q-im", "1e308"),
            # omega**2 overflows in make_single_mode (was OverflowError)
            ("quantum", "--omega", "1e300"),
        ],
    )
    def test_float_range_overflow_is_domain_failure(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ")

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
        fold = rayoptics._fold
        monkeypatch.setattr(rayoptics, "_fold", lambda system: mat2_mul(Mat2(1.0, 1.0, 0.0, 1.0), fold(system)))
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


class TestResourceCaps:
    """Size flags above their caps are usage errors, caught before any work."""

    @pytest.fixture(autouse=True)
    def forbid_work(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("an over-cap input reached the library")

        monkeypatch.setattr(emoptics, "max_boundary_residual", forbidden)
        monkeypatch.setattr(quantum, "make_single_mode", forbidden)
        monkeypatch.setattr(cli, "ray_bound_oracle", forbidden)

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
    """Each element of a file is checked once per run, and twice with --oracle."""

    INNER_RES = (
        "[resonator]\ninterface spherical R=1.0\nfreespace n=1.0 d=0.1\ninterface spherical R=2.0\n"
        "freespace n=1.5 d=0.05\ninterface plane kind=reflected\nfreespace n=1.0 d=0.3\n"
        "interface spherical R=1.5\n"
    )

    @pytest.fixture
    def checks(self, monkeypatch):
        """Calls of the clause function per element object, through any module that holds it."""
        counts = collections.Counter()
        clause = rayoptics.element_violations

        def counting(element, index):
            counts[id(element)] += 1
            return clause(element, index)

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
            (["stability", "{res}", "--oracle", "--round-trips", "20"], 2),
            (["stability", "{fp}", "--oracle", "--round-trips", "20"], 2),
        ],
    )
    def test_each_element_checked_once(self, capsys, tmp_path, checks, argv, times):
        res = tmp_path / "inner.res"
        res.write_text(self.INNER_RES)
        files = {"osys": SAMPLES / "biconvex.osys", "res": res, "fp": SAMPLES / "fp_stable.res"}
        path = str(argv[1]).format(**files)
        code, _, _ = run(capsys, argv[0], path, *argv[2:])
        assert code == 0
        elements = len(sysdesc.parse(Path(path).read_text()).items)
        assert len(checks) == elements
        assert set(checks.values()) == {times}
