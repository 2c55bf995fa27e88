"""Independent reference implementations used as test oracles.

Everything here is deliberately written along a different numerical route
than the package itself (index loops, Taylor series, superoperators,
fine-grained slicing) so agreement is meaningful.  The exception is
:func:`mean_force`, which runs the package's own mean-force pass for tests
that need H* as an input; :func:`mean_force_full_product` is the reference
that pass is tested against, with M = tr_B e^{-beta H} formed as the full
product and traced by index loops.  The work statistics and the relative
entropy are reference quantities the package does not compute itself:
tests hold its booked kick work and its entropy production against them.

:func:`dense_run` is the isolated black box itself: it evolves system,
bath and every ancilla as one literal S (x) B (x) A_0 (x) ... state from
the declarative model description, and :func:`dense_thermo` reads the
canonical thermodynamic quantities off those dense states.
"""

from __future__ import annotations

import dataclasses
import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from proctherm.algebra import (
    embed_factors,
    expect_herm,
    logsumexp,
    ptrace_factors,
    unitary_log_generator,
    vn_entropy_mat,
)
from proctherm.dilation import dilate_instrument
from proctherm.simulate import RunResult, StepTrace
from proctherm.thermo import ConventionError, _bath_moments, _mean_force_arrays
from proctherm.tolerances import EIG_FLOOR


def kron_index(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product by the direct index formula
    (a (x) b)[i*db + j, k*db + l] = a[i, k] * b[j, l]."""
    da, db = a.shape[0], b.shape[0]
    out = np.zeros((da * db, da * db), dtype=complex)
    for i in range(da):
        for k in range(da):
            for j in range(db):
                for l in range(db):
                    out[i * db + j, k * db + l] = a[i, k] * b[j, l]
    return out


def ptrace_index(mat: np.ndarray, dims: list[int], keep: list[int]) -> np.ndarray:
    """Partial trace by explicit summation over multi-indices."""
    keep = sorted(keep)
    drop = [i for i in range(len(dims)) if i not in keep]
    dk = int(np.prod([dims[i] for i in keep])) if keep else 1
    out = np.zeros((dk, dk), dtype=complex)
    shape = tuple(dims)

    def flat(idx):
        f = 0
        for d, i in zip(shape, idx):
            f = f * d + i
        return f

    for row_keep in np.ndindex(*(dims[i] for i in keep)) if keep else [()]:
        for col_keep in np.ndindex(*(dims[i] for i in keep)) if keep else [()]:
            acc = 0.0 + 0.0j
            for common in np.ndindex(*(dims[i] for i in drop)) if drop else [()]:
                row = [0] * len(dims)
                col = [0] * len(dims)
                for pos, i in zip(keep, row_keep):
                    row[pos] = i
                for pos, i in zip(keep, col_keep):
                    col[pos] = i
                for pos, i in zip(drop, common):
                    row[pos] = i
                    col[pos] = i
                acc += mat[flat(row), flat(col)]
            r = 0
            for d, i in zip([dims[i] for i in keep], row_keep):
                r = r * d + i
            c = 0
            for d, i in zip([dims[i] for i in keep], col_keep):
                c = c * d + i
            out[r, c] = acc
    return out


def taylor_expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a Taylor series."""
    norm = np.linalg.norm(a, ord=np.inf)
    s = max(0, int(np.ceil(np.log2(max(norm, 1e-30)))) + 1)
    x = a / (2 ** s)
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for n in range(1, 40):
        term = term @ x / n
        out = out + term
        if np.max(np.abs(term)) < 1e-18:
            break
    for _ in range(s):
        out = out @ out
    return out


def superoperator(kraus: list[np.ndarray]) -> np.ndarray:
    """Row-major vectorized superoperator sum_i K (x) conj(K)."""
    return sum(np.kron(k, k.conj()) for k in kraus)


def choi(kraus: Sequence[np.ndarray]) -> np.ndarray:
    """Choi matrix sum_ij |i><j| (x) Phi(|i><j|) of the map with these Kraus
    operators, input leg first."""
    d = kraus[0].shape[0]
    return sum(np.kron(e, sum(k @ e @ k.conj().T for k in kraus))
               for e in np.eye(d * d).reshape(d * d, d, d))


def apply_via_superoperator(kraus: list[np.ndarray], rho: np.ndarray) -> np.ndarray:
    d = rho.shape[0]
    return (superoperator(kraus) @ rho.reshape(-1)).reshape(d, d)


def random_hermitian(rng: np.random.Generator, d: int, scale: float = 1.0) -> np.ndarray:
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return scale * 0.5 * (a + a.conj().T)


def random_density(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_kraus_channel(rng: np.random.Generator, d: int, m: int) -> list[np.ndarray]:
    """m Kraus operators of a random CPTP map via a Haar isometry."""
    u = random_unitary(rng, d * m)
    v = u[:, :d]  # isometry columns, ancilla index varies fastest
    return [v.reshape(d, m, d)[:, i, :].copy() for i in range(m)]


def richardson_halving(values: list[float | np.ndarray], orders: tuple[int, ...] = (1, 2)):
    """Extrapolate f(h), f(h/2), ... to h -> 0 assuming error terms h^orders."""
    rows = [np.asarray(v, dtype=complex) for v in values]
    for order in orders[: len(rows) - 1]:
        factor = 2.0 ** order
        rows = [(factor * rows[i + 1] - rows[i]) / (factor - 1.0) for i in range(len(rows) - 1)]
    out = rows[0]
    return float(np.real(out)) if out.ndim == 0 else out


def dlog_daleckii(m: np.ndarray, dm: np.ndarray) -> np.ndarray:
    """Frechet derivative of the matrix logarithm at Hermitian positive m
    in direction dm, via the Daleckii-Krein formula."""
    w, v = np.linalg.eigh(m)
    dmt = v.conj().T @ dm @ v
    phi = np.zeros((len(w), len(w)), dtype=complex)
    for i in range(len(w)):
        for j in range(len(w)):
            if abs(w[i] - w[j]) < 1e-12 * max(abs(w[i]), 1.0):
                phi[i, j] = 1.0 / w[i]
            else:
                phi[i, j] = (np.log(w[i]) - np.log(w[j])) / (w[i] - w[j])
    return v @ (phi * dmt) @ v.conj().T


def mean_force_dbeta(h_xb: np.ndarray, dims: Sequence[int], h_bath: np.ndarray,
                     beta: float) -> np.ndarray:
    """dH*/dbeta of the first factor of ``h_xb`` on ``dims = (d_X, d_B)``.

    With R = tr_B e^{-beta H_XB} / Z_B and H* = -(1/beta) ln R, the product
    rule gives dH*/dbeta = ln R / beta^2 - D ln R[dR/dbeta] / beta, with
    D ln from :func:`dlog_daleckii` and the partial trace by index loops."""
    w, v = np.linalg.eigh(h_xb)
    m = ptrace_index((v * np.exp(-beta * w)) @ v.conj().T, list(dims), [0])
    dm = ptrace_index((v * (-w * np.exp(-beta * w))) @ v.conj().T, list(dims), [0])
    w_b = np.linalg.eigvalsh(h_bath)
    z_b, dz_b = np.sum(np.exp(-beta * w_b)), np.sum(-w_b * np.exp(-beta * w_b))
    ratio, dratio = m / z_b, dm / z_b - m * dz_b / z_b ** 2
    wl, vl = np.linalg.eigh(ratio)
    return (vl * np.log(wl)) @ vl.conj().T / beta ** 2 - dlog_daleckii(ratio, dratio) / beta


def mean_force_full_product(h_xb: np.ndarray, dims: Sequence[int], keep: Sequence[int],
                            beta: float, h_bath: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(H*, dH*/dbeta) of the factors ``keep`` of ``h_xb`` on ``dims``, with
    ``h_bath`` the bare Hamiltonian of the other factors, from the full
    D x D products.  With w0 = min w and c = e^{-beta (w - w0)}, M is
    ``ptrace_index`` of V diag(c) V' and M' that of V diag(-(w - w0) c) V';
    ln M comes from ``np.linalg.eigh`` of M, and dH*/dbeta from
    beta H* = beta w0 + ln Z_B - ln M by :func:`dlog_daleckii`."""
    w, v = np.linalg.eigh(np.asarray(h_xb, dtype=complex))
    w0 = w[0]
    c = np.exp(-beta * (w - w0))
    m = ptrace_index((v * c) @ v.conj().T, list(dims), list(keep))
    dm = ptrace_index((v * (-(w - w0) * c)) @ v.conj().T, list(dims), list(keep))
    w_b = np.linalg.eigvalsh(h_bath)
    c_b = np.exp(-beta * (w_b - w_b[0]))
    ln_z_b, e_b = math.log(np.sum(c_b)) - beta * w_b[0], float(c_b @ w_b / np.sum(c_b))
    wl, vl = np.linalg.eigh(m)
    eye = np.eye(len(wl))
    h_star = (w0 + ln_z_b / beta) * eye - (vl * np.log(wl)) @ vl.conj().T / beta
    return h_star, ((w0 - e_b) * eye - dlog_daleckii(m, dm) - h_star) / beta


def mean_force(h_xb: np.ndarray, dims: Sequence[int], keep: Sequence[int], beta: float,
               h_bath: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(H*, dH*/dbeta) of the factors ``keep`` of ``h_xb`` on ``dims``,
    ``h_bath`` the bare Hamiltonian of the other factors (zero if omitted),
    from the package's own mean-force pass on a stack of one spectrum."""
    d_bath = math.prod(dims) // math.prod(dims[i] for i in keep)
    h_bath = np.zeros((d_bath, d_bath)) if h_bath is None else h_bath
    h_star, dh = _mean_force_arrays([np.linalg.eigh(np.asarray(h_xb, dtype=complex))], dims,
                                    keep, _bath_moments(h_bath, beta), beta)
    return h_star[0], dh[0]


def relative_entropy_mat(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Relative entropy tr{rho(ln rho - ln sigma)} in nats.

    Returns ``math.inf`` when rho has spectral weight above 1e-12 outside
    the support of sigma instead of raising.
    """
    ws, vs = np.linalg.eigh(sigma)
    kernel = ws <= EIG_FLOOR
    if np.any(kernel):
        overlap = vs[:, kernel]
        mass = float(np.real(np.sum(overlap.conj() * (rho @ overlap))))
        if mass > 1e-12:
            return math.inf
    supp = ~kernel
    diag_rho = np.real(np.sum(vs[:, supp].conj() * (rho @ vs[:, supp]), axis=0))
    cross = float(np.dot(diag_rho, np.log(ws[supp])))
    return -vn_entropy_mat(rho) - cross


def shift_matrix(d: int, r: int) -> np.ndarray:
    """Cyclic shift |i> -> |i + r mod d>."""
    s = np.zeros((d, d), dtype=complex)
    i = np.arange(d)
    s[(i + r) % d, i] = 1.0
    return s


# ---------------------------------------------------------------------------
# work statistics
# ---------------------------------------------------------------------------

def energy_change(before: np.ndarray, after: np.ndarray, dims: Sequence[int],
                  terms: Iterable[tuple[np.ndarray, Sequence[int]]]) -> float:
    """Sum of tr{op (rho_after - rho_before)} over Hermitian ``(op,
    positions)`` terms, each evaluated on the marginal at its factor
    positions (ascending, matching the factor order of ``op``)."""
    delta = after - before
    return sum((expect_herm(op, ptrace_factors(delta, dims, pos))
                for op, pos in terms), 0.0)


def singular_control_work(state: np.ndarray, dims: Sequence[int], u_ctrl: np.ndarray,
                          positions: Sequence[int],
                          terms: Iterable[tuple[np.ndarray, Sequence[int]]]) -> float:
    """Energy change booked by an instantaneous control unitary ``u_ctrl``
    on the factors at ``positions`` of ``state`` (factors ``dims``).

    tr{(H_S + V_SB + H_A)(U rho U' - rho)} / tr rho, the Hamiltonian given
    as ``terms`` as in :func:`energy_change`: the coupling term matters
    whenever the system-bath coupling is nonzero, so this work needs bath
    access.  A finite-width control books its work through the switches of
    its window coupling instead.
    """
    u = embed_factors(u_ctrl, positions, dims)
    total = energy_change(state, u @ state @ u.conj().T, dims, terms)
    weight = float(np.real(np.trace(state)))
    return total / (weight if weight > 0 else 1.0)


def work_measurement_alternative(trace: StepTrace, record: Sequence[str]) -> float:
    """Knowledge-update (system+ancillas) measurement work of one step.

    The record is the full outcome tuple through this step; its last entry
    selects the outcome, the rest the parent branch.
    """
    record = tuple(str(l) for l in record)
    if record[:-1] not in trace.per_prefix:
        raise KeyError(f"no branch with prefix {record[:-1]} in the step trace")
    return trace.per_prefix[record[:-1]].w_meas_alt[record[-1]]


TPMRow = namedtuple("TPMRow", "labels prob work")


def tpm_work(result: RunResult) -> tuple[TPMRow, ...]:
    """Driving work plus final knowledge-update work, per outcome record.

    On an isolated system whose first and last interventions are projective
    energy measurements, this reproduces the difference of the two energy
    readings exactly, which is the two-point-measurement work statistic.
    Raises :class:`ConventionError` when a bath coupling is present: the
    identification is only valid for isolated systems.
    """
    model = result.model
    if model.has_sb_coupling():
        raise ConventionError(
            "two-point work statistics assume an isolated system; this model "
            "couples the system to the bath")
    if model.n_steps < 2:
        raise ConventionError("two-point statistics need at least two "
                              "interventions (initial and final readout)")
    last = result.traces[-1]
    return tuple(TPMRow(br.labels, br.weight, br.w_sys + work_measurement_alternative(
        last, br.labels)) for br in result.final.branches.values())


# ---------------------------------------------------------------------------
# dense black box
# ---------------------------------------------------------------------------

INSTANT = 1e-12   # times closer than this are one instant
PRUNE = 1e-14     # records lighter than this are dropped


@dataclass(frozen=True, eq=False)
class DenseRecord:
    """One outcome record: the unnormalized S B A_0 ... A_{n-1} state, the
    drive last switched to and the work tallies per unit weight.
    ``support`` is S, B and each ancilla read out by a projector of rank
    > 1 (a rank-1 readout leaves its ancilla a pure product factor)."""

    rho: np.ndarray
    h_sys: np.ndarray
    support: tuple[str, ...] = ("S", "B")
    w_sys: float = 0.0
    w_ctrl: float = 0.0
    w_meas: float = 0.0
    w_meas_alt: float = 0.0

    @property
    def p(self) -> float:
        return float(np.trace(self.rho).real)


@dataclass(frozen=True, eq=False)
class DenseRun:
    spec: Mapping
    dims: list[int]
    h_total: Callable[[np.ndarray], np.ndarray]   # every term, for one drive
    h_ancillas: np.ndarray                        # every ancilla term
    initial: DenseRecord
    snapshots: dict[float, dict[tuple[str, ...], DenseRecord]]
    pruned_mass: dict[float, float]                # summed p of the dropped records, per snapshot


def _deepest(table: Mapping, labels: Sequence[str]):
    return next(table[labels[:cut]] for cut in range(len(labels), -1, -1)
                if labels[:cut] in table)


def _hardware(step: Mapping, variants: Mapping) -> dict:
    """{prefix: (ancilla state, unitary, projectors, labels)} of one step."""
    if "instrument" in step:
        table = {(): step["instrument"], **variants}
        d = max(inst.kraus_count() for inst in table.values())
        dilated = {p: dilate_instrument(inst, d) for p, inst in table.items()}
        return {p: (hw.ancilla_state, hw.unitary, hw.projectors, hw.outcome_labels)
                for p, hw in dilated.items()}
    col = step["collision"]
    anc = np.asarray(col["ancilla_state"], dtype=complex)
    projs = col.get("projectors")
    projs = [np.eye(len(anc))] if projs is None else projs
    labels = col.get("labels") or range(1, len(projs) + 1)
    return {(): (anc, col["unitary"], projs, tuple(str(l) for l in labels))}


def _h_sb(spec: Mapping, h_sys: np.ndarray) -> np.ndarray:
    """Drive, bath and coupling terms on S (x) B."""
    d_s, d_b = spec["s_dim"], spec.get("b_dim", 1)
    h = np.kron(h_sys, np.eye(d_b)).astype(complex)
    if spec.get("h_bath") is not None:
        h = h + np.kron(np.eye(d_s), spec["h_bath"])
    return h if spec.get("v_coupling") is None else h + spec["v_coupling"]


def dense_run(spec: Mapping, report_times: Sequence[float]) -> DenseRun:
    """Literal evolution of the model ``AutonomousModel.assemble(**spec)``
    describes, read from ``spec`` alone.

    Every ancilla sits in its prepared state from the start; its
    Hamiltonian drives the evolution from its step on, and every energy
    counts all terms.  A step applies its control unitary U on S A_k as a
    kick, or opens the window V = log(U)/width, booking <V> on and off (a
    drive switch at the window's end first); then it splits each record by
    the readout projectors, dropping a child lighter than ``PRUNE`` and
    adding its weight to the pruned mass.  A drive switch is booked as the
    jump in the drive's expectation.
    """
    protocol, beta = spec["protocol"], spec["beta"]
    timelines = {(): protocol.base, **protocol.variants}
    steps = list(spec.get("steps", ()))
    feedback = spec.get("feedback") or {}
    hardware = [_hardware(st, feedback.get(k, {})) for k, st in enumerate(steps)]
    h_anc = [np.zeros((len(hw[()][0]),) * 2) if st.get("h_ancilla") is None
             else st["h_ancilla"] for st, hw in zip(steps, hardware)]
    dims = [spec["s_dim"], spec.get("b_dim", 1)] + [len(h) for h in h_anc]

    def emb(op, positions):
        return embed_factors(np.asarray(op, dtype=complex), positions, dims)

    h_a = [emb(h, [2 + k]) for k, h in enumerate(h_anc)]

    def hamiltonian(h_sys, entered=range(len(steps)), window=0):
        return emb(_h_sb(spec, h_sys), [0, 1]) + sum(h_a[k] for k in entered) + window

    def switch(rec, h_sys):
        dw = expect_herm(emb(h_sys - rec.h_sys, [0]), rec.rho) / rec.p
        return dataclasses.replace(rec, h_sys=h_sys, w_sys=rec.w_sys + dw)

    def evolve(rec, labels, a, b, entered, window=0):
        for seg in _deepest(timelines, labels):
            lo, hi = max(seg.t0, a), min(seg.t1, b)
            if hi - lo > INSTANT:
                rec = switch(rec, seg.h_system)
                u = taylor_expm(-1j * (hi - lo) * hamiltonian(seg.h_system, entered, window))
                rec = dataclasses.replace(rec, rho=u @ rec.rho @ u.conj().T)
        return rec

    h0 = protocol.base[0].h_system
    rho0 = taylor_expm(-beta * _h_sb(spec, h0)) if spec.get("sb_init") is None \
        else np.asarray(spec["sb_init"], dtype=complex)
    rho0 = rho0 / np.trace(rho0)
    for hw in hardware:
        rho0 = np.kron(rho0, hw[()][0])
    records = {(): DenseRecord(rho0, h0)}
    snapshots, pruned_mass, pruned = {}, {}, 0.0
    events = sorted([(float(st["time"]), 0, k) for k, st in enumerate(steps)]
                    + [(float(t), 1, None) for t in set(report_times)])
    t, entered = protocol.base[0].t0, []
    for t_next, _, k in events:
        records = {l: evolve(r, l, t, t_next, entered) for l, r in records.items()}
        t = t_next
        if k is None:
            snapshots[t], pruned_mass[t] = records, pruned
            continue
        entered.append(k)
        width = steps[k].get("window")
        out = {}
        for labels, rec in records.items():
            _, u, projs, outcomes = _deepest(hardware[k], labels)
            p = rec.p
            if width is None:
                u = emb(u, [0, 2 + k])
                after = u @ rec.rho @ u.conj().T
                kick = expect_herm(hamiltonian(rec.h_sys), after - rec.rho) / p
                rec = dataclasses.replace(rec, rho=after, w_ctrl=rec.w_ctrl + kick)
            else:
                v = emb(unitary_log_generator(np.asarray(u, dtype=complex)) / width,
                        [0, 2 + k])
                rec = dataclasses.replace(rec, w_ctrl=rec.w_ctrl + expect_herm(v, rec.rho) / p)
                rec = evolve(rec, labels, t, t + width, entered, v)
                ends = [s for s in _deepest(timelines, labels) if s.t0 <= t + width + INSTANT]
                rec = switch(rec, ends[-1].h_system)
                rec = dataclasses.replace(rec, w_ctrl=rec.w_ctrl - expect_herm(v, rec.rho) / p)
            h_read = emb(rec.h_sys, [0]) + sum(h_a)
            e_a, e_read = expect_herm(h_a[k], rec.rho) / p, expect_herm(h_read, rec.rho) / p
            for proj, label in zip(projs, outcomes):
                big = emb(proj, [2 + k])
                child = dataclasses.replace(rec, rho=big @ rec.rho @ big)
                pc = child.p
                if pc < PRUNE:
                    pruned += pc
                    continue
                kept = (f"A{k}",) if round(np.trace(proj).real) > 1 else ()
                out[labels + (label,)] = dataclasses.replace(
                    child, support=rec.support + kept,
                    w_meas=rec.w_meas + expect_herm(h_a[k], child.rho) / pc - e_a,
                    w_meas_alt=rec.w_meas_alt + expect_herm(h_read, child.rho) / pc - e_read)
        records = out
        t += width or 0.0
    return DenseRun(spec, dims, hamiltonian, sum(h_a, np.zeros_like(rho0)),
                    DenseRecord(rho0, h0), snapshots, pruned_mass)


# rows: {labels: (u, s, f)}; sigma_rel_ent is None where it is not defined
DenseThermo = namedtuple("DenseThermo", "rows w_budget sigma_first_law sigma_rel_ent")


def dense_thermo(run: DenseRun, t: float) -> DenseThermo:
    """Canonical thermodynamics of the records of ``run`` at time ``t``.

    Per record of probability p, with supersystem X = S A_0 ... A_{n-1}:

        u = tr{(H* + beta dH*/dbeta) rho_S} + sum_k <h_A(k)>
        s = -ln p + S_vN(rho_X) + beta^2 tr{(dH*/dbeta) rho_S}
        f = tr{H* rho_S} + sum_k <h_A(k)> + T ln p - T S_vN(rho_X)

    where H* is the bare drive for a decoupled or declared-bare model.
    Otherwise H* comes from :func:`mean_force` and dH*/dbeta
    from :func:`mean_force_dbeta`, not from the route under test.  In
    the isolated black box the work is the global energy change
    ``w_budget``, so Sigma = dS - beta (dU - w_budget).  The relative-entropy
    form (Gibbs S B start and exact mean force only) is D(rho_tot || Gibbs)
    - D(rho_X || mean-force Gibbs), against the record-conditioned
    Hamiltonians; memory and dephaser evolve unitarily, so the total
    entropy is the initial one.
    """
    spec, dims, beta = run.spec, run.dims, run.spec["beta"]
    x = [0] + list(range(2, len(dims)))
    v = spec.get("v_coupling")
    bare = spec.get("mean_force_bare") or v is None or not np.any(v)

    def thermo(rec):
        h_star, dh = rec.h_sys, np.zeros_like(rec.h_sys)
        if not bare:
            h_b = spec.get("h_bath")
            h_b = np.zeros((dims[1],) * 2) if h_b is None else h_b
            h_sb = _h_sb(spec, rec.h_sys)
            h_star = mean_force(h_sb, dims[:2], [0], beta, h_b)[0]
            dh = mean_force_dbeta(h_sb, dims[:2], h_b, beta)
        p = rec.p
        rho_s = ptrace_factors(rec.rho, dims, [0]) / p
        s_vn = vn_entropy_mat(ptrace_factors(rec.rho, dims, x) / p)
        e = expect_herm(h_star, rho_s) + expect_herm(run.h_ancillas, rec.rho) / p
        corr = expect_herm(dh, rho_s)
        return (e + beta * corr, -math.log(p) + s_vn + beta ** 2 * corr,
                e + (math.log(p) - s_vn) / beta)

    records = run.snapshots[t]
    rows = {labels: thermo(rec) for labels, rec in records.items()}
    u0, s0, _ = thermo(run.initial)
    rho0 = run.initial.rho
    h_r = {labels: run.h_total(rec.h_sys) for labels, rec in records.items()}
    e_t = sum(expect_herm(h_r[l], rec.rho) for l, rec in records.items())
    w = e_t - expect_herm(run.h_total(run.initial.h_sys), rho0)
    du = sum(rec.p * (rows[l][0] - u0) for l, rec in records.items())
    ds = sum(rec.p * (rows[l][1] - s0) for l, rec in records.items())
    sigma_rel_ent = None
    if spec.get("sb_init") is None and not spec.get("mean_force_bare"):
        ln_z = logsumexp(np.concatenate([-beta * np.linalg.eigvalsh(h) for h in h_r.values()]))
        # block-diagonal in the records, so the relative entropy sums over them
        d_x = sum(relative_entropy_mat(
            ptrace_factors(rec.rho, dims, x),
            ptrace_factors(taylor_expm(-beta * h_r[l]), dims, x) / math.exp(ln_z))
            for l, rec in records.items())
        sigma_rel_ent = beta * e_t + ln_z - vn_entropy_mat(rho0) - d_x
    return DenseThermo(rows, w, ds - beta * (du - w), sigma_rel_ent)
