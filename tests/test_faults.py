"""Fault injection: every row plants one fault and names the command-line
exit that must report it.

A row is (argv, plant, exit code, text the report must contain).  Each row
runs twice in a fresh directory that holds a valid copy of the plane <123>
file: without its fault, where the command must exit 0, so a row cannot
pass because its command fails anyway; and with the fault planted by
monkeypatch, where the command must exit with the row's code and say why.
A fault that no check catches yet is a strict xfail, never a weaker row.
"""

import json
import shutil
from pathlib import Path

import pytest

import mebasis.catalog as catalog
import mebasis.cli as cli
import mebasis.reduction as reduction
import mebasis.verify as verify
from mebasis.cli import main
from mebasis.ratlinalg import RatMatrix

PLANE_123 = Path(__file__).with_name("golden") / "plane_123.sub.json"
PLANE = "plane.sub.json"


def swap_pinned_generator(monkeypatch):
    # I002 is eliminated on gamma; pinned at (0, 2) next to I020, it is
    # redundant there, and (2, 2) loses its pinned generator I220.
    pinned = dict(reduction.PINNED_GENERATORS)
    pinned["gamma"] = tuple("I002" if n == "I220" else n for n in pinned["gamma"])
    monkeypatch.setattr(reduction, "PINNED_GENERATORS", pinned)


def change_rref_entry(monkeypatch):
    """Doubles the first nonzero free-column entry of the first RREF that
    has one."""
    rref = RatMatrix.rref
    done = []

    def faulty(self):
        m, pivots = rref(self)
        hit = None if done else next(((r, c) for r, row in enumerate(m.data)
                                      for c, x in enumerate(row)
                                      if x and c not in pivots), None)
        if hit is None:
            return m, pivots
        done.append(hit)
        rows = [list(row) for row in m.data]
        rows[hit[0]][hit[1]] *= 2
        return RatMatrix(rows), pivots

    monkeypatch.setattr(RatMatrix, "rref", faulty)


def change_published_coefficient(monkeypatch):
    """theta:02 on a copy of the shipped list: I030 = 1/18*(8*I020*I010 - ...)."""
    data = json.loads(verify.DATA_PATH.read_text())
    (rel,) = [r for r in data["relations"] if r["source"] == "theta:02"]
    assert rel["rhs"].count("9*I020") == 1
    rel["rhs"] = rel["rhs"].replace("9*I020", "8*I020")
    copy = Path("published_relations.json")
    copy.write_text(json.dumps(data))
    monkeypatch.setattr(verify, "DATA_PATH", copy)


def negate_recipe(monkeypatch):
    """I201's recipe returns -tr(mb*sb), wherever the catalog is read: the
    restriction and the spot-check both see it."""
    negated = tuple(d._replace(recipe=lambda p, r=d.recipe: -r(p)) if d.name == "I201"
                    else d for d in catalog.CATALOG)
    for module in (catalog, cli, reduction, verify):
        monkeypatch.setattr(module, "CATALOG", negated)


def drop_last_contract_term(monkeypatch):
    """double_contract loses its [2][2] term, wherever the catalog reads
    it: the restriction and the spot-check both see it."""
    contract = catalog.double_contract
    monkeypatch.setattr(catalog, "double_contract",
                        lambda a, b: contract(a, b) - a[2][2] * b[2][2])


def spotcheck_at_the_origin(monkeypatch):
    """Every spot-check point is the origin, where every invariant is 0, and
    theta:02 has a changed coefficient."""
    change_published_coefficient(monkeypatch)
    monkeypatch.setattr(verify, "random_point",
                        lambda table, rng: {name: 0 for name in table.names})


def negate_symbolic_value(monkeypatch):
    """verify_published, as verify calls it, substitutes -I201 for I201;
    the numeric route still values I201 through its recipe."""
    check = cli.verify_published

    def faulty(rel, rb):
        entries = tuple((n, -p if n == "I201" else p) for n, p in rb.entries)
        return check(rel, rb._replace(entries=entries))

    monkeypatch.setattr(cli, "verify_published", faulty)


def negate_numeric_value(monkeypatch):
    """numeric_invariants gives -I201 at every point; the symbolic route
    still substitutes the restricted polynomial."""
    values = verify.numeric_invariants

    def faulty(sub, point):
        got = values(sub, point)
        return {**got, "I201": -got["I201"]}

    monkeypatch.setattr(verify, "numeric_invariants", faulty)


def move_sigma_off_plane(monkeypatch):
    """sigma_33 gains s1, so sigma . (1, 2, 3) has third component 3*s1."""
    doc = json.loads(Path(PLANE).read_text())
    doc["sigma"]["33"] += " + s1"
    Path(PLANE).write_text(json.dumps(doc))


def drop_products(monkeypatch):
    """Drops every two-factor product column whose first factor is I010."""
    products = reduction.reducible_products

    def faulty(*args):
        return [p for p in products(*args) if not (len(p[0]) == 2 and p[0][0] == "I010")]

    monkeypatch.setattr(reduction, "reducible_products", faulty)


def add_gamma_generator(monkeypatch):
    """gamma's reduction gains the generator I012, which the alpha_prime
    set lacks."""
    reduce = cli.reduce_basis

    def faulty(rb, **kwargs):
        result = reduce(rb, **kwargs)
        if rb.substitution.name != "gamma":
            return result
        return result._replace(generators=result.generators + ("I012",))

    monkeypatch.setattr(cli, "reduce_basis", faulty)


def drop_first_relation(keep_its_name):
    """A plant: at the first bi-degree that has a relation, the engine drops
    that relation and, if keep_its_name, reports its solved-for name as
    kept."""
    def plant(monkeypatch):
        eliminate = reduction._eliminate
        done = []

        def faulty(bd, polys, prods, invs, order):
            kept, syzygies, relations = eliminate(bd, polys, prods, invs, order)
            if done or not relations:
                return kept, syzygies, relations
            name = relations[0].solved_for
            done.append(name)
            if keep_its_name:
                kept = tuple(n for n in invs if n in kept or n == name)
            return kept, syzygies, relations[1:]

        monkeypatch.setattr(reduction, "_eliminate", faulty)
    return plant


ROWS = {
    "pinned-generator-swapped": (["reduce", "--fiber", "gamma"],
                                 swap_pinned_generator, 3, "keep set"),
    "rref-entry-changed": (["reduce", "--fiber", "theta"],
                           change_rref_entry, 3, "does not substitute to zero"),
    # union and every reduce format walk only the bi-degrees where an
    # invariant survives; the keep-set check and the self-check run at each.
    "pinned-generator-swapped-union": (["union"], swap_pinned_generator, 3, "keep set"),
    "rref-entry-changed-union": (["union"], change_rref_entry, 3,
                                 "does not substitute to zero"),
    "rref-entry-changed-latex": (["reduce", "--fiber", "theta", "--format", "latex"],
                                 change_rref_entry, 3, "does not substitute to zero"),
    "published-coefficient-changed": (["verify", "--fiber", "theta", "--trials", "5"],
                                      change_published_coefficient, 1,
                                      "FAIL  theta:02  I030"),
    # theta's published relations through I201 fail: I211, I221, I213, I601.
    "recipe-sign-flipped": (["verify", "--fiber", "theta", "--trials", "5"],
                            negate_recipe, 1, "7/11 relations verified"),
    # sd and md keep a [2][2] entry on every plane.  On theta the shipped
    # relations for I030, I022, I212a, I221 and I220 fail; on gamma 19 of
    # 22 fail.  verify runs no reduction, so the engine, whose pinned keep
    # set no longer spans (0, 2) on gamma, cannot hide that verdict.
    "contract-term-dropped": (["verify", "--fiber", "theta", "--trials", "5"],
                              drop_last_contract_term, 1, "6/11 relations verified"),
    "contract-term-dropped-gamma": (["verify", "--fiber", "gamma", "--trials", "5"],
                                    drop_last_contract_term, 1, "3/22 relations verified"),
    # Every invariant is 0 at the origin, so no point tests any relation:
    # every numeric column says fail, and the symbolic one fails theta:02.
    # One route fails and the other passes: either alone fails the
    # relation.  theta's published relations through I201 are I211, I221,
    # I213 and I601.
    "symbolic-route-only": (["verify", "--fiber", "theta", "--trials", "5"],
                            negate_symbolic_value, 1,
                            "FAIL  theta:04  I211  (symbolic fail, numeric pass)"),
    "numeric-route-only": (["verify", "--fiber", "theta", "--trials", "5"],
                           negate_numeric_value, 1,
                           "FAIL  theta:04  I211  (symbolic pass, numeric fail)"),
    "spotcheck-at-the-origin": (["verify", "--fiber", "theta", "--trials", "5"],
                                spotcheck_at_the_origin, 1, "numeric fail"),
    "sigma-out-of-plane": (["reduce", "--fiber", f"custom:{PLANE}",
                            "--policy", "table-order"],
                           move_sigma_off_plane, 2, "sigma . n has nonzero component 3"),
    "union-inclusion-broken": (["union"], add_gamma_generator, 1,
                               "gamma subset of alpha_prime: False"),
    # Measured: table-order returns 14 generators for gamma instead of 8
    # (I002, I003, I201, I202a, I202b, I203, I401, I402 and I601 kept,
    # I030, I220 and I410 eliminated), with exit 0; reduce runs no spanning
    # or minimality certificate.
    "product-columns-dropped": (["reduce", "--fiber", "gamma", "--policy", "table-order"],
                                drop_products, 3, "error:"),
    # Measured: theta reports 8 generators, I012 among them, with exit 0.
    # Under the paper policy the keep-set check catches this plant.
    "eliminated-invariant-kept": (["reduce", "--fiber", "theta", "--policy", "table-order"],
                                  drop_first_relation(True), 3, "error:"),
    # Measured: I012 is neither a generator nor solved for, with exit 0.
    "relation-dropped": (["reduce", "--fiber", "theta", "--policy", "table-order"],
                         drop_first_relation(False), 3, "error:"),
}

UNCAUGHT = {"product-columns-dropped", "eliminated-invariant-kept", "relation-dropped"}


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    shutil.copy(PLANE_123, tmp_path / PLANE)
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("row", ROWS)
def test_row_exits_0_without_its_fault(row, workdir, capsys):
    argv = ROWS[row][0]
    assert main(argv) == 0, capsys.readouterr().err


@pytest.mark.parametrize("row", [
    pytest.param(row, marks=pytest.mark.xfail(strict=True, reason="no check catches it"))
    if row in UNCAUGHT else row for row in ROWS])
def test_planted_fault_is_caught(row, workdir, monkeypatch, capsys):
    argv, plant, code, says = ROWS[row]
    plant(monkeypatch)
    got = main(argv)
    out, err = capsys.readouterr()
    assert got == code, err
    assert says in out + err


def test_verify_never_runs_the_engine(workdir, monkeypatch, capsys):
    # The exit code of verify comes from its two independent checks alone.
    def engine(*args, **kwargs):
        raise reduction.ReductionError("verify ran the engine")

    monkeypatch.setattr(cli, "reduce_basis", engine)
    monkeypatch.setattr(reduction, "reduce_basis", engine)
    for fiber in ("theta", "alpha_prime", "gamma"):
        assert main(["verify", "--fiber", fiber, "--trials", "5"]) == 0, fiber
    capsys.readouterr()
    change_published_coefficient(monkeypatch)
    assert main(["verify", "--fiber", "theta", "--trials", "5"]) == 1
    out, err = capsys.readouterr()
    assert "FAIL  theta:02  I030" in out
    assert err == ""
    assert "Traceback" not in out
