"""End-to-end tests of the command-line front end.

Each case writes a small problem file, runs ``cli.run`` on it and reads
the report back.  Reports are compared with the library's own results
bit for bit, which pins down both the dispatch and the float format.
"""

import json

import numpy as np
import pytest

import conecert.cli as cli
import conecert.linalg
from conecert import (
    FarkasVerification,
    IterationLimit,
    LegendrePoly,
    ShapeProblem,
    chebyshev_points,
    farkas_alternative,
    generalized_farkas,
    integral_moments,
    positive_quadrature,
    positive_relative_test,
    project_dual,
    project_generated,
    project_shape,
    span_membership,
)
from test_farkas import UNDECIDED

TOP_KEYS = ["kind", "input_echo", "result", "certificates", "runtime_ms"]

# a pointed cone in R^4: every generator has a positive first coordinate
K = [
    [1.0, 0.5, -0.2, 0.1],
    [1.2, -0.7, 0.3, 0.0],
    [0.8, 0.1, 0.9, -0.4],
    [1.5, 0.2, -0.6, 0.8],
    [0.9, -0.3, 0.1, -0.9],
    [1.1, 0.6, 0.4, 0.3],
]
X = [-1.0, 0.4, -0.3, 0.7]

DUAL_CERTS = [
    "difference_in_cone",
    "active_set_nonempty",
    "active_set_independent",
    "positive_multipliers",
    "active_orthogonality",
    "point_in_cone",
    "active_count_bound",
    "infeasible_direction_exists",
    "kkt_residual",
    "orthogonality",
]
PROJECT_KEYS = ["orientation", "point", "rho", "active", "kkt_residual", "orthogonality_residual"]
FARKAS_KEYS = ["tag", "y", "x", "verification"]
MEMBERSHIP_KEYS = ["mode", "member", "coefficients", "witness"]


def _run(tmp_path, kind, problem, *extra):
    src = tmp_path / "in.json"
    out = tmp_path / "out.json"
    src.write_text(json.dumps(problem))
    rc = cli.run([kind, "--input", str(src), "--output", str(out), *extra])
    report = json.loads(out.read_text()) if out.exists() else None
    return rc, report


def _check_layout(report, kind, result_keys, cert_names):
    assert list(report) == TOP_KEYS
    assert report["kind"] == kind
    assert list(report["input_echo"]) == ["file", "tol", "seed"]
    assert list(report["result"]) == result_keys
    assert [c["name"] for c in report["certificates"]] == cert_names
    assert all(c["pass"] for c in report["certificates"])


def _same(reported, computed):
    got = np.asarray(reported, dtype=float)
    assert got.shape == computed.shape
    assert np.array_equal(got, computed)


class TestProject:
    def test_dual(self, tmp_path):
        rc, rep = _run(tmp_path, "project", {"kind": "project", "generators": K, "point": X})
        assert rc == 0
        _check_layout(rep, "project", PROJECT_KEYS, DUAL_CERTS)
        res = project_dual(K, X)
        _same(rep["result"]["point"], res.point)
        _same(rep["result"]["rho"], res.rho)
        assert rep["result"]["active"] == res.active.tolist()

    def test_dual_with_witness(self, tmp_path):
        problem = {"kind": "project", "orientation": "dual", "generators": K, "point": X, "witness_e": [1, 0, 0, 0]}
        rc, rep = _run(tmp_path, "project", problem)
        assert rc == 0
        _check_layout(rep, "project", PROJECT_KEYS, ["witness_positivity"] + DUAL_CERTS)

    def test_dual_feasible_point(self, tmp_path):
        rc, rep = _run(tmp_path, "project", {"kind": "project", "generators": K, "point": [1.0, 0.0, 0.0, 0.0]})
        assert rc == 0
        _check_layout(rep, "project", PROJECT_KEYS, ["fixed_point", "kkt_residual", "orthogonality"])

    def test_generated(self, tmp_path):
        rc, rep = _run(tmp_path, "project", {"kind": "project", "orientation": "generated", "generators": K, "point": X})
        assert rc == 0
        certs = ["multipliers_nonnegative", "kkt_inequalities", "orthogonality", "representation"]
        _check_layout(rep, "project", PROJECT_KEYS, certs)
        res = project_generated(K, X)
        _same(rep["result"]["point"], res.point)
        _same(rep["result"]["rho"], res.rho)
        assert rep["result"]["kkt_residual"] == res.kkt_residual
        assert rep["result"]["orthogonality_residual"] == res.orthogonality_residual


class TestFarkas:
    def test_system1(self, tmp_path):
        rhs = (np.array(K).T @ np.array([0.5, 0.0, 1.0, 0.0, 2.0, 0.0])).tolist()
        rc, rep = _run(tmp_path, "farkas", {"kind": "farkas", "matrix": K, "rhs": rhs})
        assert rc == 0
        _check_layout(rep, "farkas", FARKAS_KEYS, ["primal_residual", "multipliers_nonnegative", "certificate_verifies"])
        assert rep["result"]["tag"] == "system1"
        assert rep["result"]["x"] is None
        _same(rep["result"]["y"], farkas_alternative(K, rhs).y)
        assert list(rep["result"]["verification"]) == ["primal_residual", "dual_violation", "strict_gap"]

    def test_system2(self, tmp_path):
        rhs = [-1.0, 0.2, 0.1, 0.0]
        rc, rep = _run(tmp_path, "farkas", {"kind": "farkas", "matrix": K, "rhs": rhs})
        assert rc == 0
        certs = ["dual_violation_normalized", "strict_gap_positive", "certificate_verifies"]
        _check_layout(rep, "farkas", FARKAS_KEYS, certs)
        assert rep["result"]["tag"] == "system2"
        assert rep["result"]["y"] is None
        out = farkas_alternative(K, rhs)
        _same(rep["result"]["x"], out.x)
        assert rep["result"]["verification"]["strict_gap"] == out.verification.strict_gap

    @pytest.mark.parametrize("rhs", [[1.0, 0.0, 0.0, 0.0], [-1.0, 0.2, 0.1, 0.0]], ids=["system1", "system2"])
    def test_verification_is_computed_once(self, tmp_path, monkeypatch, rhs):
        # the certificate and the report's `verification` field read one computation
        made = []
        monkeypatch.setattr("conecert.farkas.FarkasVerification", lambda *args: made.append(args) or FarkasVerification(*args))
        rc, rep = _run(tmp_path, "farkas", {"kind": "farkas", "matrix": K, "rhs": rhs})
        assert rc == 0
        assert len(made) == 1
        assert list(rep["result"]["verification"].values()) == list(made[0])

    def test_system2_just_off_the_cone(self, tmp_path):
        # the residual 5e-8 is above the membership rule's tol ||b||
        rc, rep = _run(tmp_path, "farkas", {"kind": "farkas", "matrix": [[1.0, 0.0]], "rhs": [1.0, 5e-8]})
        assert rc == 0
        _check_layout(rep, "farkas", FARKAS_KEYS, ["dual_violation_normalized", "strict_gap_positive", "certificate_verifies"])
        assert rep["result"]["tag"] == "system2"
        assert rep["result"]["x"] == [0.0, 5e-8]

    def test_pairs(self, tmp_path):
        # the box |x_i| <= 1 implies x_1 + x_2 <= 3
        pairs = [[[1.0, 0.0], 1.0], [[0.0, 1.0], 1.0], [[-1.0, 0.0], 1.0], [[0.0, -1.0], 1.0]]
        problem = {"kind": "farkas", "pairs": pairs, "b": [1.0, 1.0], "r": 3.0}
        rc, rep = _run(tmp_path, "farkas", problem)
        assert rc == 0
        keys = [
            "member_plain",
            "member_augmented",
            "sampled_implication_holds",
            "hypothesis_verified",
            "feasible_point",
            "samples_used",
        ]
        certs = ["membership_monotone", "sampled_implication_consistent", "feasibility_hypothesis", "implication_multipliers"]
        _check_layout(rep, "farkas", keys, certs)
        report = generalized_farkas([(s, p) for s, p in pairs], [1.0, 1.0], 3.0)
        assert rep["result"]["member_augmented"] is report.member_augmented is True
        assert rep["result"]["samples_used"] == report.samples_used
        _same(rep["result"]["feasible_point"], report.feasible_point)

    def test_pairs_infeasible(self, tmp_path):
        # x1 <= 1 and -x1 <= -2: the implication holds vacuously, and the
        # lifted multipliers certify that no point is feasible
        problem = {"kind": "farkas", "pairs": [[[1.0], 1.0], [[-1.0], -2.0]], "b": [1.0], "r": 0.0}
        rc, rep = _run(tmp_path, "farkas", problem)
        assert rc == 0
        assert rep["result"]["hypothesis_verified"] is False
        assert rep["result"]["sampled_implication_holds"] is True
        cert = rep["certificates"][2]
        assert cert["name"] == "feasibility_hypothesis" and cert["pass"] is True
        assert cert["residual"] <= 1e-9

    def test_pairs_wedge(self, tmp_path):
        # the origin is infeasible; a point of the wedge must still be found
        problem = {"kind": "farkas", "pairs": [[[1.0, 0.01], -1.0], [[-1.0, 0.01], -1.0]], "b": [0.0, 1.0], "r": -50.0}
        rc, rep = _run(tmp_path, "farkas", problem)
        assert rc == 0
        assert rep["result"]["hypothesis_verified"] is True
        assert rep["result"]["member_augmented"] is True

    def test_pairs_far_from_origin(self, tmp_path):
        # x1 >= 1e8 implies -x1 <= -1e8; the report must be written with a
        # point that satisfies the pair
        problem = {"kind": "farkas", "pairs": [[[-1.0], -1e8]], "b": [-1.0], "r": -1e8}
        rc, rep = _run(tmp_path, "farkas", problem)
        assert rc == 0
        assert rep["result"]["hypothesis_verified"] is True
        assert -rep["result"]["feasible_point"][0] <= -1e8 + 1e-9 * (1.0 + 1e8)


    def test_pairs_undecided(self, tmp_path):
        # a system strictly feasible about 1e3 from the origin whose implication
        # fails: the report carries a violator, and every check passes
        rc, rep = _run(tmp_path, "farkas", UNDECIDED)
        assert rc == 0
        assert rep["result"]["sampled_implication_holds"] is False and rep["result"]["member_augmented"] is False
        failed = [c["name"] for c in rep["certificates"] if not c["pass"]]
        assert failed == []


class TestQuadrature:
    def test_rule_round_trips(self, tmp_path):
        rc, rep = _run(tmp_path, "quadrature", {"kind": "quadrature", "degree": 5, "interval": [0.0, 1.0]})
        assert rc == 0
        certs = ["basis_exactness", "node_count_bound", "weights_positive", "nodes_in_interval"]
        _check_layout(rep, "quadrature", ["nodes", "weights", "degree", "interval"], certs)
        rule = positive_quadrature(integral_moments(5, 0.0, 1.0), 48)
        _same(rep["result"]["nodes"], rule.nodes)
        _same(rep["result"]["weights"], rule.weights)
        assert rep["result"]["interval"] == [0.0, 1.0]


class TestShape:
    KEYS = ["legendre_coeffs", "monomial_coeffs", "active_alphas", "rho", "min_derivative_on_checkgrid", "distance"]
    CERTS = ["representation", "active_derivative_zero", "grid_feasibility", "checkgrid_feasibility", "active_count_bound"]

    def test_n_equals_r_plus_one(self, tmp_path):
        target = [0.3, -1.0, 0.5]
        problem = {"kind": "shape", "n": 2, "r": 1, "grid_size": 12, "target": {"legendre": target}}
        rc, rep = _run(tmp_path, "shape", problem)
        assert rc == 0
        _check_layout(rep, "shape", self.KEYS, self.CERTS)
        res = project_shape(ShapeProblem(n=2, r=1, grid=chebyshev_points(12), target=LegendrePoly(target)))
        _same(rep["result"]["legendre_coeffs"], res.solution.coeffs)
        _same(rep["result"]["active_alphas"], res.active_alphas)
        _same(rep["result"]["rho"], res.rho)
        assert rep["result"]["min_derivative_on_checkgrid"] == res.min_derivative_on_checkgrid

    @pytest.mark.xfail(
        strict=True,
        reason="CHANGES.md FOUND: project_shape certificates fail on n=3, r=0, target t^3 "
        "(a check-grid minimum of -7.7e-6, far below the threshold tol ||target||)",
    )
    def test_cubic_known_fault(self, tmp_path):
        problem = {"kind": "shape", "n": 3, "r": 0, "target": {"monomial": [0.0, 0.0, 0.0, 1.0]}}
        rc, _ = _run(tmp_path, "shape", problem)
        assert rc == 0


class TestMembership:
    SPAN = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    CONE = [[1.0, 0.0], [1.0, 1.0]]

    def test_span_member(self, tmp_path):
        x = [2.0, -3.0, 0.0]
        rc, rep = _run(tmp_path, "membership", {"kind": "membership", "mode": "span", "vectors": self.SPAN, "point": x})
        assert rc == 0
        _check_layout(rep, "membership", MEMBERSHIP_KEYS, ["representation"])
        assert rep["result"]["member"] is True
        assert rep["result"]["witness"] is None
        _same(rep["result"]["coefficients"], span_membership(self.SPAN, x).coefficients)

    def test_span_nonmember(self, tmp_path):
        x = [1.0, 1.0, 1.0]
        rc, rep = _run(tmp_path, "membership", {"kind": "membership", "mode": "span", "vectors": self.SPAN, "point": x})
        assert rc == 0
        certs = ["witness_separates", "witness_orthogonality", "witness_self_product"]
        _check_layout(rep, "membership", MEMBERSHIP_KEYS, certs)
        assert rep["result"]["coefficients"] is None
        _same(rep["result"]["witness"], span_membership(self.SPAN, x).witness)

    def test_cone_member(self, tmp_path):
        x = [2.0, 1.0]
        rc, rep = _run(tmp_path, "membership", {"kind": "membership", "vectors": self.CONE, "point": x})
        assert rc == 0
        _check_layout(rep, "membership", MEMBERSHIP_KEYS, ["representation", "multipliers_nonnegative"])
        assert rep["result"]["mode"] == "cone"
        _same(rep["result"]["coefficients"], positive_relative_test(self.CONE, x).coefficients)

    def test_cone_nonmember(self, tmp_path):
        x = [-1.0, 0.5]
        rc, rep = _run(tmp_path, "membership", {"kind": "membership", "mode": "cone", "vectors": self.CONE, "point": x})
        assert rc == 0
        certs = ["witness_separates", "witness_nonpositive_products", "witness_self_product"]
        _check_layout(rep, "membership", MEMBERSHIP_KEYS, certs)
        assert rep["result"]["member"] is False
        _same(rep["result"]["witness"], positive_relative_test(self.CONE, x).witness)

    # the orthant's generators 1e150 and 1e160 apart in length: (1, 1) is a member of both cones
    def test_generators_1e150_apart(self, tmp_path):
        problem = {"kind": "membership", "mode": "cone", "vectors": [[1e-75, 0.0], [0.0, 1e75]], "point": [1.0, 1.0]}
        rc, rep = _run(tmp_path, "membership", problem)
        assert rc == 0 and rep["result"]["member"] is True

    @pytest.mark.xfail(
        strict=True,
        reason="CHANGES.md FOUND: nnls divides all of S by one power of two, so the squared length of "
        "a generator about 1e154 below the largest entry underflows and the rank rule passes it over",
    )
    def test_generators_1e160_apart_known_fault(self, tmp_path):
        problem = {"kind": "membership", "mode": "cone", "vectors": [[1e-80, 0.0], [0.0, 1e80]], "point": [1.0, 1.0]}
        rc, rep = _run(tmp_path, "membership", problem)
        assert rc == 0 and rep["result"]["member"] is True


BOX = [[[1.0, 0.0], 1.0], [[0.0, 1.0], 1.0], [[-1.0, 0.0], 1.0], [[0.0, -1.0], 1.0]]

# one file per branch of every kind
BRANCHES = {
    "dual": {"kind": "project", "generators": K, "point": X},
    "dual_witness": {"kind": "project", "generators": K, "point": X, "witness_e": [1, 0, 0, 0]},
    "dual_feasible": {"kind": "project", "generators": K, "point": [1.0, 0.0, 0.0, 0.0]},
    "generated": {"kind": "project", "orientation": "generated", "generators": K, "point": X},
    "system1": {"kind": "farkas", "matrix": K, "rhs": (np.array(K).T @ np.array([0.5, 0.0, 1.0, 0.0, 2.0, 0.0])).tolist()},
    "system2": {"kind": "farkas", "matrix": K, "rhs": [-1.0, 0.2, 0.1, 0.0]},
    "pairs": {"kind": "farkas", "pairs": BOX, "b": [1.0, 1.0], "r": 3.0},
    "pairs_violated": {"kind": "farkas", "pairs": BOX, "b": [1.0, 1.0], "r": 1.0},
    "pairs_infeasible": {"kind": "farkas", "pairs": [[[1.0], 1.0], [[-1.0], -2.0]], "b": [1.0], "r": 0.0},
    "quadrature": {"kind": "quadrature", "degree": 5, "interval": [0.0, 1.0]},
    "shape": {"kind": "shape", "n": 2, "r": 1, "grid_size": 12, "target": {"legendre": [0.3, -1.0, 0.5]}},
    "span_member": {"kind": "membership", "mode": "span", "vectors": TestMembership.SPAN, "point": [2.0, -3.0, 0.0]},
    "span_nonmember": {"kind": "membership", "mode": "span", "vectors": TestMembership.SPAN, "point": [1.0, 1.0, 1.0]},
    "cone_member": {"kind": "membership", "vectors": TestMembership.CONE, "point": [2.0, 1.0]},
    "cone_nonmember": {"kind": "membership", "vectors": TestMembership.CONE, "point": [-1.0, 0.5]},
}

# (name, residual, pass) of each report as written before the checks moved
# into the library, and since then the implication proof and refutation
# checks appended to the pairs reports; residuals are compared bit for bit.
# Products with a generator or representer are divided by its length, an
# orthogonality residual by ||x||, and a moment error is the 2-norm of the
# moment residual, so those residuals are as the unit-free rule writes them
PINNED = {
    "dual": (
        ('difference_in_cone', 0.0, True),
        ('active_set_nonempty', 0.0, True),
        ('active_set_independent', 0.0, True),
        ('positive_multipliers', 0.0, True),
        ('active_orthogonality', 9.27615855647292e-17, True),
        ('point_in_cone', 0.0, True),
        ('active_count_bound', 0.0, True),
        ('infeasible_direction_exists', 0.0, True),
        ('kkt_residual', 9.27615855647292e-17, True),
        ('orthogonality', 7.975404458426654e-17, True),
    ),
    "dual_witness": (
        ('witness_positivity', 0.0, True),
        ('difference_in_cone', 0.0, True),
        ('active_set_nonempty', 0.0, True),
        ('active_set_independent', 0.0, True),
        ('positive_multipliers', 0.0, True),
        ('active_orthogonality', 9.27615855647292e-17, True),
        ('point_in_cone', 0.0, True),
        ('active_count_bound', 0.0, True),
        ('infeasible_direction_exists', 0.0, True),
        ('kkt_residual', 9.27615855647292e-17, True),
        ('orthogonality', 7.975404458426654e-17, True),
    ),
    "dual_feasible": (
        ('fixed_point', 0.0, True),
        ('kkt_residual', 0.0, True),
        ('orthogonality', 0.0, True),
    ),
    "generated": (
        ('multipliers_nonnegative', 0.0, True),
        ('kkt_inequalities', 0.0, True),
        ('orthogonality', 0.0, True),
        ('representation', 0.0, True),
    ),
    "system1": (
        ('primal_residual', 5.438959822042073e-16, True),
        ('multipliers_nonnegative', 0.0, True),
        ('certificate_verifies', 0.0, True),
    ),
    "system2": (
        ('dual_violation_normalized', 0.0, True),
        ('strict_gap_positive', 0.0, True),
        ('certificate_verifies', 0.0, True),
    ),
    "pairs": (
        ('membership_monotone', 0.0, True),
        ('sampled_implication_consistent', 0.0, True),
        ('feasibility_hypothesis', 0.0, True),
        ('implication_multipliers', 0.0, True),
    ),
    "pairs_violated": (
        ('membership_monotone', 0.0, True),
        ('sampled_implication_consistent', 0.0, True),
        ('feasibility_hypothesis', 0.0, True),
        ('implication_violator', 0.0, True),
    ),
    "pairs_infeasible": (
        ('membership_monotone', 0.0, True),
        ('sampled_implication_consistent', 0.0, True),
        ('feasibility_hypothesis', 3.0414723152116605e-17, True),
        ('implication_multipliers', 0.0, True),
    ),
    "quadrature": (
        ('basis_exactness', 2.833924464077117e-16, True),
        ('node_count_bound', 0.0, True),
        ('weights_positive', 0.0, True),
        ('nodes_in_interval', 0.0, True),
    ),
    "shape": (
        ('representation', 0.0, True),
        ('active_derivative_zero', 0.0, True),
        ('grid_feasibility', 0.0, True),
        ('checkgrid_feasibility', 0.0, True),
        ('active_count_bound', 0.0, True),
    ),
    "span_member": (
        ('representation', 0.0, True),
    ),
    "span_nonmember": (
        ('witness_separates', 0.0, True),
        ('witness_orthogonality', 0.0, True),
        ('witness_self_product', 0.0, True),
    ),
    "cone_member": (
        ('representation', 4.440892098500626e-16, True),
        ('multipliers_nonnegative', 0.0, True),
    ),
    "cone_nonmember": (
        ('witness_separates', 0.0, True),
        ('witness_nonpositive_products', 0.0, True),
        ('witness_self_product', 0.0, True),
    ),
}


@pytest.mark.parametrize("branch", list(BRANCHES))
def test_certificates_pinned(tmp_path, branch):
    problem = BRANCHES[branch]
    rc, rep = _run(tmp_path, problem["kind"], problem)
    assert rc == 0
    assert [(c["name"], c["residual"], c["pass"]) for c in rep["certificates"]] == list(PINNED[branch])


# files at the ends of the float range: (problem, exit status, failing checks).
# `nnls` solves on S and x divided by powers of two near their largest entries,
# so a generator of 1e-200 and entries of 1e200 are found as at unit scale
EXTREME = {
    "farkas_tiny": ({"kind": "farkas", "matrix": [[1e-200]], "rhs": [1e-200]}, 0, []),
    "cone_tiny": ({"kind": "membership", "mode": "cone", "vectors": [[1e-200]], "point": [1e-200]}, 0, []),
    "generated_tiny": ({"kind": "project", "orientation": "generated", "generators": [[1e-200]], "point": [1e-200]}, 0, []),
    # the refutation step takes <b, u> along the unit witness, so it stays in the float range
    "pairs_long_b": ({"kind": "farkas", "pairs": [[[1.0, 1.0], 1.0]], "b": [1e200, 1e200], "r": 1.0}, 0, []),
    # the plane <b, x> = r lies |r| / ||b|| = 7e499 from the origin, past the float range, so the
    # balance unit is the largest float; the implication fails at x = 0, the report's violator
    "pairs_far_plane": ({"kind": "farkas", "pairs": [[[1e200, 1e200], 1e-200]], "b": [1e-200, 1e-200], "r": -1e300}, 0, []),
    # with b = 0 the balance unit is |p_1| / ||s_1|| = 1e500, the largest float too; 0 <= 0 holds
    "pairs_far_gap": ({"kind": "farkas", "pairs": [[[1e-200, 0.0], 1e300]], "b": [0.0, 0.0], "r": 0.0}, 0, []),
    # x_1 <= -1e500: every solution lies past the float range, so the reach of `_find_point` is the
    # largest float; its lifted pair is (0, -1) to within 1e-500 of its length, which proves the
    # system infeasible at the rule of `infeasibility_residual`, and 0 <= 0 holds by multipliers
    "pairs_far_half_space": ({"kind": "farkas", "pairs": [[[1e-200, 0.0], -1e300]], "b": [0.0, 0.0], "r": 0.0}, 0, []),
    # the same with x_1 <= 1e-200 added: that pair's size at the largest reach passes the float
    # range, so it is left out of the lifted solve, and the multipliers of the first still prove it
    "pairs_far_half_space_and_near": (
        {"kind": "farkas", "pairs": [[[1e-200, 0.0], -1e300], [[1e200, 0.0], 1.0]], "b": [0.0, 0.0], "r": 0.0}, 0, []
    ),
    # the square of ||s_1|| is past the float range; `_excess` multiplies it by ||x|| = 0 at the origin
    "pairs_long_row": ({"kind": "farkas", "pairs": [[[1e200, 1e200], 1.0], [[-1.0, 0.0], 1.0]], "b": [1.0, 0.0], "r": 5.0}, 0, []),
    # the system-2 verification is taken on b and x divided by a power of two near ||b||,
    # so it stays finite where <b, x> - ||x||^2 / 2 is not, and json.dumps refuses NaN
    "farkas_long_rhs": ({"kind": "farkas", "matrix": [[1.0, 0.0]], "rhs": [0.0, 1e160]}, 0, []),
    # the distance from the target is finite where its square is not, and json.dumps refuses inf
    "shape_1e200": ({"kind": "shape", "n": 3, "r": 1, "target": {"legendre": [1e200, 0, 0, -1e200]}}, 0, []),
}


@pytest.mark.parametrize("name", list(EXTREME))
def test_ends_of_the_float_range(tmp_path, name):
    problem, code, failing = EXTREME[name]
    rc, rep = _run(tmp_path, problem["kind"], problem)
    assert rc == code
    assert [c["name"] for c in rep["certificates"] if not c["pass"]] == failing


class TestEntryPoints:
    def test_stdout_report(self, tmp_path, capsys):
        _, written = _run(tmp_path, "project", BRANCHES["dual"])
        capsys.readouterr()
        rc = cli.run(["project", "--input", str(tmp_path / "in.json")])
        assert rc == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed.pop("runtime_ms") >= 0.0
        written.pop("runtime_ms")
        assert printed == written

    @pytest.mark.parametrize(
        "problem, code",
        [
            (BRANCHES["dual"], 0),
            ({"kind": "project", "generators": K}, 1),
            # <k, e> < 0 for some generator: witness_positivity fails
            ({"kind": "project", "generators": K, "point": X, "witness_e": [0, 1, 0, 0]}, 2),
        ],
    )
    def test_main_exit_code(self, tmp_path, monkeypatch, capsys, problem, code):
        src = tmp_path / "in.json"
        src.write_text(json.dumps(problem))
        monkeypatch.setattr("sys.argv", ["conecert", problem["kind"], "--input", str(src), "--output", str(tmp_path / "out.json")])
        with pytest.raises(SystemExit) as exit_info:
            cli.main()
        assert exit_info.value.code == code


class TestInputErrors:
    def test_missing_field(self, tmp_path):
        rc, rep = _run(tmp_path, "project", {"kind": "project", "generators": K})
        assert rc == 1
        assert rep is None

    def test_kind_mismatch(self, tmp_path):
        rc, rep = _run(tmp_path, "project", {"kind": "farkas", "matrix": K, "rhs": X})
        assert rc == 1
        assert rep is None

    def test_zero_tolerance(self, tmp_path):
        rc, rep = _run(tmp_path, "project", {"kind": "project", "generators": K, "point": X}, "--tol", "0")
        assert rc == 1
        assert rep is None

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tolerance(self, tmp_path, capsys, tol):
        rc, rep = _run(tmp_path, "project", {"kind": "project", "generators": K, "point": X}, "--tol", tol)
        assert rc == 1
        assert rep is None
        assert "--tol must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "problem",
        [
            {"kind": "shape", "n": 2, "r": 1, "grid": [-1.0, "x", 1.0], "target": {"legendre": [1.0, 2.0, 3.0]}},
            {"kind": "shape", "n": 2, "r": 1, "target": {"legendre": [1.0, "y", 3.0]}},
            {"kind": "project", "generators": [[1.0, 0.0]], "point": X},
            {"kind": "project", "generators": K, "point": X, "witness_e": [1.0, 0.0]},
            {"kind": "membership", "vectors": [[1.0, 0.0], [0.0]], "point": [1.0, 1.0]},
        ],
    )
    def test_malformed_vectors(self, tmp_path, problem):
        rc, rep = _run(tmp_path, problem["kind"], problem)
        assert rc == 1
        assert rep is None

    @pytest.mark.parametrize(
        "kind, content, message",
        [
            ("project", None, "No such file"),
            ("project", '{"kind": "project",', "Expecting"),
            ("project", "[1, 2]", "top-level value must be an object"),
            ("project", {"kind": "project", "generators": {"k": [1.0]}, "point": X}, "'generators' must be a list"),
            ("project", {"kind": "project", "orientation": "polar", "generators": K, "point": X}, "'orientation'"),
            ("farkas", {"kind": "farkas", "pairs": {"s": [1.0]}, "b": [1.0], "r": 1.0}, "'pairs' must be a list"),
            ("farkas", {"kind": "farkas", "pairs": [[[1.0]]], "b": [1.0], "r": 1.0}, "'pairs[0]'"),
            ("farkas", {"kind": "farkas", "pairs": [[[1.0], 1.0]], "b": [1.0], "r": "one"}, "'r' must be a number"),
            ("farkas", {"kind": "farkas", "pairs": [[[1.0, 0.0, 0.0], 1.0]], "b": [1.0, 1.0], "r": 1.0}, "'pairs[0]'"),
            ("farkas", {"kind": "farkas", "pairs": [[[1.0, 0.0], 1.0], [[1.0], 1.0]], "b": [1.0, 1.0], "r": 1.0}, "'pairs[1]'"),
            ("quadrature", {"kind": "quadrature", "degree": -1, "interval": [0.0, 1.0]}, "'degree'"),
            ("quadrature", {"kind": "quadrature", "degree": 2, "interval": 1.0}, "'interval'"),
            ("quadrature", {"kind": "quadrature", "degree": 2, "interval": [0.0, 1.0], "grid_size": 5}, "'grid_size'"),
            ("quadrature", {"kind": "quadrature", "degree": 2, "interval": [1.0, 0.0]}, "need a < b"),
            ("shape", {"kind": "shape", "n": 2, "r": 1, "target": [1.0, 2.0]}, "'target' must be an object"),
            ("shape", {"kind": "shape", "n": 2, "r": 1, "target": {"legendre": [1.0, 2.0, 3.0, 4.0]}}, "target degree exceeds"),
            ("shape", {"kind": "shape", "n": 2, "r": 2, "target": {"legendre": [1.0]}}, "0 <= r < n"),
            ("shape", {"kind": "shape", "n": 2, "r": 1, "grid_size": 2, "target": {"legendre": [1.0]}}, "'grid_size'"),
            ("shape", {"kind": "shape", "n": 2, "r": 1, "grid": [0.5, 0.0, 1.0], "target": {"legendre": [1.0]}}, "strictly increasing"),
            ("membership", {"kind": "membership", "mode": "polar", "vectors": [[1.0]], "point": [1.0]}, "'mode'"),
            ("project", {"kind": "project", "generators": K, "point": None}, "'point' must be a vector, not null"),
            ("farkas", {"kind": "farkas", "pairs": [[[1.0], 1.0]], "b": [1.0], "r": True}, "'r' must be a number"),
            ("farkas", {"kind": "farkas", "pairs": [[[1.0], float("nan")]], "b": [1.0], "r": 1.0}, "NaN is not a finite number"),
            ("quadrature", {"kind": "quadrature", "degree": True, "interval": [0.0, 1.0]}, "'degree' must be an integer"),
            ("quadrature", {"kind": "quadrature", "degree": 2, "interval": [0.0, float("inf")]}, "Infinity is not a finite number"),
            ("farkas", '{"kind": "farkas", "pairs": [[[1.0], 1.0]], "b": [1.0], "r": -1e400}', "-1e400 is not a finite number"),
            ("membership", f'{{"kind": "membership", "vectors": [[1.0]], "point": [{10**400}]}}', "is not a finite number"),
            ("farkas", '{"kind": "farkas", "pairs": [[[1.0], 1.0]], "b": [1.0], "r": ' + "1" * 5000 + "}", "limit"),
            ("shape", {"kind": "shape", "n": 2, "r": False, "target": {"legendre": [1.0]}}, "'r' must be an integer"),
            ("project", {"kind": "project", "generators": K, "point": [True, False]}, "'point' must hold numbers, not true"),
            ("quadrature", {"kind": "quadrature", "degree": 2, "interval": [False, True]}, "'interval' must hold numbers, not false"),
            ("farkas", {"kind": "farkas", "pairs": [[[1.0], "2"]], "b": [1.0], "r": 1.0}, "'pairs[0]' must hold numbers, not \"2\""),
            ("membership", {"kind": "membership", "vectors": [[1.0, "0"]], "point": [1.0, 0.0]}, "'vectors' must hold numbers"),
            # b - a overflows, so the degree-0 moment sqrt(b - a) is infinite
            ("quadrature", {"kind": "quadrature", "degree": 2, "interval": [-1e308, 1e308]}, "moments must be finite"),
        ],
    )
    def test_malformed_file(self, tmp_path, capsys, kind, content, message):
        src = tmp_path / "in.json"
        if content is not None:
            src.write_text(content if isinstance(content, str) else json.dumps(content))
        out = tmp_path / "out.json"
        rc = cli.run([kind, "--input", str(src), "--output", str(out)])
        assert rc == 1
        assert not out.exists()
        assert message in capsys.readouterr().err

    def test_unknown_kind(self, tmp_path):
        rc, rep = _run(tmp_path, "cones", {"kind": "cones"})
        assert rc == 1
        assert rep is None


# one valid file per branch of the input parser
VALID = {
    "dual": BRANCHES["dual"],
    "generated": BRANCHES["generated"],
    "matrix": BRANCHES["system2"],
    "pairs": BRANCHES["pairs"],
    "quadrature": BRANCHES["quadrature"],
    "shape_grid_size": BRANCHES["shape"],
    "shape_grid": {"kind": "shape", "n": 2, "r": 1, "grid": np.linspace(-1.0, 1.0, 12).tolist(), "target": {"legendre": [0.3, -1.0, 0.5]}},
    "cone": BRANCHES["cone_member"],
    "span": BRANCHES["span_member"],
}
# json.dumps writes nan and inf as the NaN and Infinity literals that json.loads accepts
POOL = [True, False, None, "x", float("nan"), float("inf"), -1, 0, 2.5, [], [[]], {}, [float("nan")], [0, float("inf")]]


@pytest.mark.parametrize("branch, field", [(b, f) for b, problem in VALID.items() for f in problem])
def test_malformed_field_exits_cleanly(tmp_path, branch, field):
    """With one field replaced by any value of the pool, `run` returns an
    exit status and raises nothing."""
    for value in POOL:
        src = tmp_path / "in.json"
        src.write_text(json.dumps({**VALID[branch], field: value}))
        rc = cli.run([VALID[branch]["kind"], "--input", str(src), "--output", str(tmp_path / "out.json")])
        assert rc in (0, 1, 2), value


class TestGaveUp:
    @pytest.fixture(autouse=True)
    def _give_up(self, monkeypatch):
        def raise_limit(*args, **kwargs):
            raise IterationLimit("nnls exceeded 0 pivots")

        monkeypatch.setattr(cli, "project_dual", raise_limit)

    def test_json_report(self, tmp_path):
        rc, rep = _run(tmp_path, "project", {"kind": "project", "generators": K, "point": X})
        assert rc == 2
        assert list(rep) == TOP_KEYS + ["error"]
        assert rep["result"] is None
        assert rep["certificates"] == [{"name": "computation_completed", "residual": 1.0, "pass": False}]
        assert rep["error"] == "IterationLimit: nnls exceeded 0 pivots"

    def test_fails_at_any_tol(self, tmp_path):
        rc, rep = _run(tmp_path, "project", {"kind": "project", "generators": K, "point": X}, "--tol", "2.0")
        assert rc == 2
        assert rep["certificates"] == [{"name": "computation_completed", "residual": 1.0, "pass": False}]

    def test_text_report(self, tmp_path):
        src, out = tmp_path / "in.json", tmp_path / "out.txt"
        src.write_text(json.dumps({"kind": "project", "generators": K, "point": X}))
        rc = cli.run(["project", "--input", str(src), "--output", str(out), "--format", "text"])
        assert rc == 2
        lines = out.read_text().splitlines()
        assert lines[:3] == ["kind: project", "result: (none)", "error: IterationLimit: nnls exceeded 0 pivots"]
        assert "  [FAIL] computation_completed  residual=1.0" in lines


class TestOtherFormats:
    def test_text_report(self, tmp_path):
        problem = {"kind": "quadrature", "degree": 3, "interval": [-1.0, 1.0]}
        _, rep = _run(tmp_path, "quadrature", problem)
        text = tmp_path / "out.txt"
        rc = cli.run(["quadrature", "--input", str(tmp_path / "in.json"), "--output", str(text), "--format", "text"])
        assert rc == 0
        lines = text.read_text().splitlines()
        assert lines[:2] == ["kind: quadrature", "result:"]
        assert lines[-1].startswith("runtime_ms: ")
        certs = lines[lines.index("certificates:") + 1 : -1]
        assert len(certs) == len(rep["certificates"])
        for line, cert in zip(certs, rep["certificates"]):
            assert line.startswith(f"  [pass] {cert['name']}  residual=")
            assert float(line.rsplit("=", 1)[1]) == cert["residual"]

    def test_csv_quadrature(self, tmp_path):
        csv = tmp_path / "rule.csv"
        problem = {"kind": "quadrature", "degree": 3, "interval": [-1.0, 1.0]}
        rc, rep = _run(tmp_path, "quadrature", problem, "--dump-csv", str(csv))
        assert rc == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "node,weight"
        rows = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
        assert rows == list(zip(rep["result"]["nodes"], rep["result"]["weights"]))

    def test_csv_pairs(self, tmp_path):
        # a pairs result has neither y nor x: its rows are the feasible point
        csv = tmp_path / "point.csv"
        rc, rep = _run(tmp_path, "farkas", {"kind": "farkas", "pairs": BOX, "b": [1.0, 1.0], "r": 3.0}, "--dump-csv", str(csv))
        assert rc == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "component,value"
        rows = [(int(i), float(v)) for i, v in (line.split(",") for line in lines[1:])]
        assert rows == list(enumerate(rep["result"]["feasible_point"]))
        assert len(rows) == 2

    @pytest.mark.parametrize(
        "kind, problem, header",
        [
            ("project", {"kind": "project", "generators": K, "point": X}, "component,point"),
            ("farkas", {"kind": "farkas", "matrix": K, "rhs": [-1.0, 0.2, 0.1, 0.0]}, "component,value"),
            ("membership", {"kind": "membership", "vectors": [[1.0, 0.0]], "point": [2.0, 0.0]}, "component,value"),
            ("shape", {"kind": "shape", "n": 2, "r": 1, "grid_size": 12, "target": {"legendre": [0.3, -1.0, 0.5]}}, "t,solution"),
        ],
    )
    def test_csv_headers(self, tmp_path, kind, problem, header):
        csv = tmp_path / "table.csv"
        rc, _ = _run(tmp_path, kind, problem, "--dump-csv", str(csv))
        assert rc == 0
        assert csv.read_text().splitlines()[0] == header

    @pytest.mark.parametrize(
        "kind, problem, header",
        [
            ("project", {"kind": "project", "generators": K, "point": X}, "component,point"),
            ("quadrature", {"kind": "quadrature", "degree": 3, "interval": [-1.0, 1.0]}, "node,weight"),
            ("shape", {"kind": "shape", "n": 2, "r": 1, "grid_size": 12, "target": {"legendre": [0.3, -1.0, 0.5]}}, "t,solution"),
        ],
    )
    def test_csv_of_a_run_that_gave_up_is_the_header(self, tmp_path, monkeypatch, kind, problem, header):
        # with no pivot allowed every solve raises IterationLimit: no result, so no rows
        monkeypatch.setattr(conecert.linalg, "PIVOTS_PER_ENTRY", 0)
        csv = tmp_path / "table.csv"
        rc, rep = _run(tmp_path, kind, problem, "--dump-csv", str(csv))
        assert rc == 2
        assert rep["result"] is None and rep["error"].startswith("IterationLimit")
        assert csv.read_text().splitlines() == [header]
