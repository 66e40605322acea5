import itertools
import os
import pickle
import random
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    assignments,
    gates_matrix,
    keypolys,
    mats_equal_up_to_phase,
    random_circuit,
    sigma,
)
from tlink import frames
from tlink.circuits import ValidationError, cnot, h, p, pdg, x, z
from tlink.compiler import _fires, _fires_one, _plan_test
from tlink.frames import (
    KeyPoly,
    OutcomeVar,
    Owner,
    PauliMask,
    SymbolicMask,
    apply_tableau,
    commute_through_t_layer,
    cross_terms,
    mask_of,
    outcome_var,
    poly_eval,
    tableau_from_stage,
    var_bit,
)

P_BOB = OutcomeVar("p", Owner.BOB)
Q_ALICE = OutcomeVar("q", Owner.ALICE)


def unit_masks(n):
    """The 2n unit exponent vectors (a_0..a_{n-1}, b_0..b_{n-1}) as masks."""
    for j in range(2 * n):
        bits = [0] * (2 * n)
        bits[j] = 1
        yield PauliMask(tuple(bits[:n]), tuple(bits[n:]))


def fixes_every_unit_mask(gates, n):
    tab = tableau_from_stage(gates, n)
    return all(apply_tableau(tab, m) == m for m in unit_masks(n))


def dense_stage_matrix(stage, n):
    """Product of one dense 2n x 2n GF(2) matrix per gate, in gate order;
    column j is the image of the j-th unit exponent vector."""
    out = np.eye(2 * n, dtype=np.int64)
    for g in stage:
        m = np.eye(2 * n, dtype=np.int64)
        if g.kind.value == "H":
            (q,) = g.targets
            m[[q, n + q]] = m[[n + q, q]]
        elif g.kind.value in ("P", "PDG"):
            (q,) = g.targets
            m[n + q, q] = 1
        elif g.kind.value == "CNOT":
            c, tgt = g.targets
            m[tgt, c] = 1
            m[n + c, n + tgt] = 1
        out = m @ out % 2
    return out


class TestKeyPoly:
    def test_constant_one_evaluates_to_one(self):
        assert poly_eval(KeyPoly.one(), {}) == 1

    def test_product_evaluation(self):
        pq = KeyPoly.of(P_BOB) * KeyPoly.of(Q_ALICE)
        assert poly_eval(pq, {"p": 1, "q": 1}) == 1
        assert poly_eval(pq, {"p": 1, "q": 0}) == 0

    def test_affine_evaluation(self):
        poly = KeyPoly.of(P_BOB) ^ KeyPoly.of(Q_ALICE) ^ KeyPoly.one()
        assert poly_eval(poly, {"p": 0, "q": 0}) == 1

    def test_missing_variable_raises(self):
        with pytest.raises(ValidationError, match="unbound"):
            poly_eval(KeyPoly.of(P_BOB), {})

    def test_display_format(self):
        m3x = OutcomeVar("m3x")
        poly = (KeyPoly.of(m3x) * KeyPoly.of(Q_ALICE)) ^ KeyPoly.of(P_BOB) ^ KeyPoly.one()
        assert str(poly) == "m3x*q ^ p ^ 1"
        assert str(KeyPoly.zero()) == "0"

    def test_xor_cancels(self):
        poly = KeyPoly.of(P_BOB)
        assert (poly ^ poly).is_zero

    def test_multilinear_idempotence(self):
        poly = KeyPoly.of(P_BOB)
        assert poly * poly == poly

    @given(keypolys, keypolys, assignments)
    def test_eval_is_ring_homomorphism(self, f, g, env):
        assert poly_eval(f ^ g, env) == poly_eval(f, env) ^ poly_eval(g, env)
        assert poly_eval(f * g, env) == poly_eval(f, env) & poly_eval(g, env)

    @given(keypolys, keypolys, keypolys)
    def test_ring_laws(self, f, g, k):
        assert f ^ g == g ^ f
        assert f * g == g * f
        assert f * (g ^ k) == (f * g) ^ (f * k)


class TestBitmaskKeys:
    @given(keypolys, st.permutations(range(24)))
    def test_mask_evaluation_matches_by_name(self, f, order):
        # A plan's compiled test of f, with f's variables on arbitrary plan
        # bits below 24 and the other bits set as noise, against poly_eval at
        # every assignment: one row at a time and as one frontier.
        names = sorted(f.variables(), key=lambda v: v.name)
        plan_bit = {var_bit(v): bit for v, bit in zip(names, order)}
        test = _plan_test(f, plan_bit)
        noise = sum(1 << bit for bit in order[len(names)::2])
        rows, want = [], []
        for values in itertools.product((0, 1), repeat=len(names)):
            ones = noise + sum(1 << bit for bit, value in zip(order, values) if value)
            expected = poly_eval(f, {v.name: value for v, value in zip(names, values)})
            assert _fires_one(test, ones) == expected
            rows.append(ones)
            want.append(bool(expected))
        fire = _fires(test, np.array(rows, dtype=np.int64))
        assert fire.dtype == bool and fire.tolist() == want

    @given(keypolys)
    def test_monomials_round_trip(self, f):
        assert KeyPoly.from_monomials(f.monomials, f.constant) == f
        assert f.support == sum(1 << var_bit(v) for v in f.variables())

    @pytest.mark.parametrize("size", [0, 5, 63, 64, 500])
    def test_mask_of_keeps_odd_bits(self, size):
        rng = np.random.default_rng(size)
        bits = [int(b) for b in rng.integers(0, 3 * size + 1, size)]
        want = 0
        for b in bits:
            want ^= 1 << b
        assert mask_of(bits) == want

    def test_one_bit_per_variable_across_threads(self):
        # Threads race to add the same new variables in different orders; a
        # lost update would give a variable two bits or two variables one.
        fresh = [OutcomeVar(f"race{i}", owner) for i in range(300) for owner in Owner]
        seen: list[dict] = []

        def work(seed):
            order = list(fresh)
            random.Random(seed).shuffle(order)
            seen.append({v: KeyPoly.of(v).linear for v in order})

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
            assert not any(th.is_alive() for th in threads)
        finally:
            sys.setswitchinterval(old)
        assert len(seen) == 8 and all(masks == seen[0] for masks in seen)
        masks = list(seen[0].values())
        assert len(set(masks)) == len(fresh) and all(m.bit_count() == 1 for m in masks)
        for v, m in seen[0].items():
            assert KeyPoly(m).variables() == {v}


    def test_pickled_key_names_its_variables(self):
        # Another process numbers its variables in its own order.
        key = (KeyPoly.of(OutcomeVar("pk_b", Owner.BOB)) * KeyPoly.of(OutcomeVar("pk_a", Owner.ALICE))
               ^ KeyPoly.of(OutcomeVar("pk_c")) ^ KeyPoly.one())
        assert pickle.loads(pickle.dumps(key)) == key
        code = ("import pickle, sys\n"
                "from tlink.frames import KeyPoly, OutcomeVar\n"
                "KeyPoly.of(OutcomeVar('pk_c'))\n"
                "key = pickle.loads(sys.stdin.buffer.read())\n"
                "print(key, sorted((v.name, v.owner.value) for v in key.variables()))\n")
        src = os.path.dirname(os.path.dirname(frames.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run([sys.executable, "-c", code], input=pickle.dumps(key), env=env,
                             capture_output=True, timeout=60, check=True)
        assert run.stdout.decode().strip() == (
            "pk_a*pk_b ^ pk_c ^ 1 [('pk_a', 'alice'), ('pk_b', 'bob'), ('pk_c', 'local')]")


class TestOutcomeVar:
    def test_equal_variables_hash_equal(self):
        a, b = OutcomeVar("hv", Owner.ALICE), OutcomeVar("hv", Owner.ALICE)
        assert a == b and a is not b
        assert hash(a) == hash(b) == hash(("hv", "alice"))
        assert len({a, b}) == 1

    def test_same_name_other_owner_is_another_member(self):
        members = {OutcomeVar("hv", owner) for owner in Owner}
        assert len(members) == len(Owner)
        assert OutcomeVar("hv", Owner.BOB) in members
        assert len({KeyPoly.of(v).linear for v in members}) == len(Owner)

    def test_hash_does_not_hash_the_owner(self, monkeypatch):
        def refuse(self):
            raise AssertionError("Owner hashed")

        monkeypatch.setattr(Owner, "__hash__", refuse)
        key = KeyPoly.of(P_BOB) * KeyPoly.of(Q_ALICE)
        assert cross_terms(key) == [frozenset({P_BOB, Q_ALICE})]
        assert key.variables() == {P_BOB, Q_ALICE}

    def test_outcome_var_is_the_tables_instance(self):
        v = outcome_var("ov_fresh", Owner.BOB)
        assert v == OutcomeVar("ov_fresh", Owner.BOB)
        assert outcome_var("ov_fresh", Owner.BOB) is v
        assert frames._VARS[var_bit(v)] is v
        assert outcome_var("ov_fresh") is not v and outcome_var("ov_fresh").owner is Owner.LOCAL


class TestCrossTerms:
    def test_degree_one_terms_only(self):
        poly = KeyPoly.of(P_BOB) ^ KeyPoly.of(Q_ALICE)
        assert cross_terms(poly) == []

    def test_mixed_product_detected(self):
        poly = (KeyPoly.of(P_BOB) * KeyPoly.of(Q_ALICE)) ^ KeyPoly.of(Q_ALICE)
        assert cross_terms(poly) == [frozenset({P_BOB, Q_ALICE})]

    def test_same_owner_product_not_cross(self):
        w = OutcomeVar("w", Owner.BOB)
        assert cross_terms(KeyPoly.of(P_BOB) * KeyPoly.of(w)) == []


    def test_str_orders_terms_by_sorted_names(self, rng):
        # Names that prefix each other: the printed order must equal sorting
        # monomials by their tuple of sorted names.
        pool = [OutcomeVar(v) for v in ("a", "ab", "a_", "b", "m1x", "m10x", "m1", "x9")]
        for _ in range(200):
            monos = frozenset(
                frozenset(pool[i] for i in rng.choice(len(pool), int(rng.integers(1, 4)),
                                                      replace=False))
                for _ in range(int(rng.integers(1, 8))))
            key = KeyPoly.from_monomials(monos, int(rng.integers(2)))
            names = sorted(tuple(sorted(v.name for v in m)) for m in monos)
            want = " ^ ".join(["*".join(t) for t in names] + (["1"] if key.constant else []))
            assert str(key) == want


class TestTableau:
    def test_h_swaps_exponents(self):
        tab = tableau_from_stage([h(0)], 1)
        assert apply_tableau(tab, PauliMask((1,), (0,))) == PauliMask((0,), (1,))

    def test_cnot_propagates_x_to_target(self):
        tab = tableau_from_stage([cnot(0, 1)], 2)
        out = apply_tableau(tab, PauliMask((1, 0), (0, 0)))
        assert out == PauliMask((1, 1), (0, 0))

    def test_cnot_propagates_z_to_control(self):
        tab = tableau_from_stage([cnot(0, 1)], 2)
        out = apply_tableau(tab, PauliMask((0, 0), (0, 1)))
        assert out == PauliMask((0, 0), (1, 1))

    def test_empty_stage_is_identity(self):
        assert fixes_every_unit_mask([], 2)

    def test_p_adds_z_on_x(self):
        tab = tableau_from_stage([p(0)], 1)
        assert apply_tableau(tab, PauliMask((1,), (0,))) == PauliMask((1,), (1,))

    def test_pauli_gates_act_trivially(self):
        assert fixes_every_unit_mask([x(0), z(0)], 1)

    def test_rejects_t(self):
        from tlink.circuits import t
        with pytest.raises(ValidationError, match="non-Clifford"):
            tableau_from_stage([t(0)], 1)

    def test_identity_applies_trivially_to_symbolic(self):
        mask = SymbolicMask((KeyPoly.of(P_BOB),), (KeyPoly.zero(),))
        assert apply_tableau(tableau_from_stage([], 1), mask) == mask

    def test_matrix_conjugation_oracle(self, rng):
        # C sigma(m) C^dag must equal sigma(tableau(m)) up to phase.
        for _ in range(30):
            n = int(rng.integers(1, 4))
            stage = random_circuit(rng, n, 1, allow_empty_final=False).stages[0].clifford
            tab = tableau_from_stage(stage, n)
            mat = gates_matrix(stage, n)
            mask = PauliMask(tuple(int(b) for b in rng.integers(0, 2, n)),
                             tuple(int(b) for b in rng.integers(0, 2, n)))
            lhs = mat @ sigma(mask) @ mat.conj().T
            rhs = sigma(apply_tableau(tab, mask))
            assert mats_equal_up_to_phase(lhs, rhs)

    def test_linearity_and_inverse(self, rng):
        inverse_kind = {"P": pdg, "PDG": p}
        for _ in range(20):
            n = int(rng.integers(1, 4))
            stage = list(random_circuit(rng, n, 1, allow_empty_final=False).stages[0].clifford)
            tab = tableau_from_stage(stage, n)
            m1 = PauliMask(tuple(int(b) for b in rng.integers(0, 2, n)),
                           tuple(int(b) for b in rng.integers(0, 2, n)))
            m2 = PauliMask(tuple(int(b) for b in rng.integers(0, 2, n)),
                           tuple(int(b) for b in rng.integers(0, 2, n)))
            assert apply_tableau(tab, m1 ^ m2) == apply_tableau(tab, m1) ^ apply_tableau(tab, m2)
            inv = [inverse_kind[g.kind.value](g.targets[0]) if g.kind.value in inverse_kind else g
                   for g in reversed(stage)]
            assert fixes_every_unit_mask(stage + inv, n)

    def test_matches_dense_per_gate_product(self, rng):
        for _ in range(40):
            n = int(rng.integers(1, 7))
            stage = random_circuit(rng, n, 1, max_clifford=6 * n).stages[0].clifford
            expected = dense_stage_matrix(stage, n)
            tab = tableau_from_stage(stage, n)
            for j, unit in enumerate(unit_masks(n)):
                out = apply_tableau(tab, unit)
                assert out.a + out.b == tuple(int(v) for v in expected[:, j])

    def test_symbolic_apply_is_coefficientwise(self, rng):
        names = [OutcomeVar(f"v{i}") for i in range(6)]
        for _ in range(20):
            n = int(rng.integers(1, 5))
            stage = random_circuit(rng, n, 1, max_clifford=4 * n).stages[0].clifford
            matrix = dense_stage_matrix(stage, n)
            keys = [KeyPoly.from_monomials([{names[i]} for i in range(6) if rng.random() < 0.4],
                                           int(rng.integers(2))) for _ in range(2 * n)]
            out = apply_tableau(tableau_from_stage(stage, n),
                                SymbolicMask(tuple(keys[:n]), tuple(keys[n:])))
            for row, got in enumerate(out.a + out.b):
                want = KeyPoly.zero()
                for col in range(2 * n):
                    if matrix[row, col]:
                        want = want ^ keys[col]
                assert got == want


class TestTLayer:
    def test_z_mask_commutes_freely(self):
        mask, g = commute_through_t_layer(PauliMask((0,), (1,)), {0})
        assert mask == PauliMask((0,), (1,))
        assert g == {0: 0}

    def test_x_mask_emits_pending_key(self):
        mask, g = commute_through_t_layer(PauliMask((1,), (0,)), {0})
        assert mask == PauliMask((1,), (0,))
        assert g == {0: 1}

    def test_zero_mask_no_key(self):
        _, g = commute_through_t_layer(PauliMask.zero(1), {0})
        assert g == {0: 0}

    def test_matrix_identity_for_t_layer(self, rng):
        # T^{x S} sigma(m) = phase * (x_{j in S} P^{g_j}) sigma(m) T^{x S}
        from conftest import MAT_1Q, embed_1q
        for _ in range(20):
            n = int(rng.integers(1, 4))
            s = {int(q) for q in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)}
            mask = PauliMask(tuple(int(b) for b in rng.integers(0, 2, n)),
                             tuple(int(b) for b in rng.integers(0, 2, n)))
            _, g = commute_through_t_layer(mask, s)
            t_all = np.eye(2 ** n, dtype=complex)
            for q in s:
                t_all = embed_1q(MAT_1Q["T"], q, n) @ t_all
            corr = np.eye(2 ** n, dtype=complex)
            for q in s:
                corr = np.linalg.matrix_power(embed_1q(MAT_1Q["P"], q, n), g[q]) @ corr
            assert mats_equal_up_to_phase(t_all @ sigma(mask), corr @ sigma(mask) @ t_all)


class TestPdag:
    # P-dagger pushes like P: b += a, with the phase dropped.
    def test_x_mask_gains_z(self):
        push = tableau_from_stage([pdg(0)], 1)
        assert apply_tableau(push, PauliMask((1,), (0,))) == PauliMask((1,), (1,))

    def test_matrix_check_pdag_x(self):
        # P^dag X = -i X Z P^dag
        from conftest import MAT_1Q
        lhs = MAT_1Q["PDG"] @ MAT_1Q["X"]
        rhs = -1j * MAT_1Q["X"] @ MAT_1Q["Z"] @ MAT_1Q["PDG"]
        assert np.allclose(lhs, rhs)

    def test_z_mask_unchanged(self):
        push = tableau_from_stage([pdg(0)], 1)
        assert apply_tableau(push, PauliMask((0,), (1,))) == PauliMask((0,), (1,))


@given(st.integers(0, 2 ** 30))
def test_symbolic_concrete_coherence_on_random_pipelines(seed):
    """Random frame pipelines give the same bits whether tracked symbolically
    and evaluated at the end, or tracked with concrete bits throughout."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    names = [OutcomeVar(f"v{i}", (Owner.ALICE, Owner.BOB)[i % 2]) for i in range(4)]
    env = {v.name: int(rng.integers(0, 2)) for v in names}
    sym = SymbolicMask(tuple(KeyPoly.of(names[int(rng.integers(4))]) for _ in range(n)),
                       tuple(KeyPoly.of(names[int(rng.integers(4))]) for _ in range(n)))
    conc = sym.evaluate(env)
    for _ in range(int(rng.integers(1, 5))):
        op = rng.integers(0, 3)
        if op == 0:
            stage = random_circuit(rng, n, 1, allow_empty_final=False).stages[0].clifford
            tab = tableau_from_stage(stage, n)
            sym, conc = apply_tableau(tab, sym), apply_tableau(tab, conc)
        elif op == 1:
            s = {int(q) for q in rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)}
            sym, gs = commute_through_t_layer(sym, s)
            conc, gc = commute_through_t_layer(conc, s)
            for j in s:
                assert poly_eval(gs[j], env) == gc[j]
        else:
            # P-dagger on qubit j conditioned on an outcome c: b_j += a_j * c
            j = int(rng.integers(n))
            cond = names[int(rng.integers(4))]
            sym = sym.xor_at(j, KeyPoly.zero(), sym.a[j] * KeyPoly.of(cond))
            db = [0] * n
            db[j] = conc.a[j] & env[cond.name]
            conc = conc ^ PauliMask((0,) * n, tuple(db))
    assert sym.evaluate(env) == conc
