"""Declarative scenario files: parsing, validation, model assembly.

Scenarios are YAML documents with explicit complex literals (``"a+bi"``)
and row-major matrices, so they diff cleanly and double as a test corpus.
Validation errors carry the field path of the offending node.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np
import yaml

from .algebra import gibbs_mat, is_hermitian, validate_density
from .channels import CPMap, Instrument
from .protocol import Protocol, Segment, before, same_instant
from .simulate import AutonomousModel

__all__ = ["Scenario", "ScenarioError", "parse_scenario", "parse_scenario_dict",
           "build_model"]

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

_COMPLEX_CHARS = re.compile(r"[0-9eE.+\-ij]+")


class ScenarioError(ValueError):
    """Validation failure with the field path of the offending node."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _parse_complex(value: Any, path: str) -> complex:
    if isinstance(value, bool):
        raise ScenarioError(path, f"expected a number, got {value!r}")
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, str):
        text = value.strip().replace(" ", "")
        if not text or not _COMPLEX_CHARS.fullmatch(text):
            raise ScenarioError(path, f"malformed complex literal {value!r}")
        try:
            return complex(text.replace("i", "j"))
        except ValueError:
            raise ScenarioError(path, f"malformed complex literal {value!r}") from None
    raise ScenarioError(path, f"expected a number or 'a+bi' string, got {type(value).__name__}")


def _pauli_string(ops: str, path: str) -> np.ndarray:
    out = np.array([[1.0]], dtype=complex)
    for ch in ops:
        if ch not in _PAULI:
            raise ScenarioError(path, f"unknown Pauli letter {ch!r} in {ops!r}")
        out = np.kron(out, _PAULI[ch])
    return out


def _parse_matrix(node: Any, path: str, names: Mapping[str, np.ndarray],
                  dim: int | None = None) -> np.ndarray:
    if isinstance(node, str):
        if node not in names:
            raise ScenarioError(path, f"unknown matrix name {node!r}")
        mat = names[node]
    elif isinstance(node, Mapping):
        keys = set(node)
        if "pauli" in keys:
            mat = _pauli_string(str(node["pauli"]), path)
            mat = complex(_parse_complex(node.get("coeff", 1.0), path + ".coeff")).real * mat
        elif "diag" in keys:
            entries = [_parse_complex(v, f"{path}.diag[{i}]")
                       for i, v in enumerate(node["diag"])]
            mat = np.diag(np.array(entries, dtype=complex))
        elif "number" in keys:
            spec = node["number"]
            d = int(spec.get("dim", 0))
            if d < 1:
                raise ScenarioError(path + ".number.dim", "needs a positive dim")
            w = float(spec.get("spacing", 1.0))
            off = float(spec.get("offset", 0.0))
            mat = np.diag(off + w * np.arange(d)).astype(complex)
        elif "zeros" in keys:
            d = int(node["zeros"])
            mat = np.zeros((d, d), dtype=complex)
        else:
            raise ScenarioError(path, f"unknown matrix spec with keys {sorted(keys)}")
    elif isinstance(node, Sequence):
        rows = []
        for i, row in enumerate(node):
            if not isinstance(row, Sequence) or isinstance(row, str):
                raise ScenarioError(f"{path}[{i}]", "matrix rows must be lists")
            rows.append([_parse_complex(v, f"{path}[{i}][{j}]")
                         for j, v in enumerate(row)])
        widths = {len(r) for r in rows}
        if len(widths) != 1 or len(rows) not in widths:
            raise ScenarioError(path, "matrix must be square")
        mat = np.array(rows, dtype=complex)
    else:
        raise ScenarioError(path, f"cannot read a matrix from {type(node).__name__}")
    if dim is not None and mat.shape != (dim, dim):
        raise ScenarioError(path, f"expected a {dim}x{dim} matrix, got {mat.shape}")
    return mat


def _parse_hermitian(node, path, names, dim=None) -> np.ndarray:
    mat = _parse_matrix(node, path, names, dim)
    if not is_hermitian(mat):
        raise ScenarioError(path, "matrix must be Hermitian")
    return mat


def _parse_state(node: Any, path: str, dim: int, beta: float,
                 hamiltonian: np.ndarray | None,
                 names: Mapping[str, np.ndarray]) -> np.ndarray:
    if isinstance(node, Mapping):
        if node.get("gibbs"):
            h = np.zeros((dim, dim)) if hamiltonian is None else hamiltonian
            return gibbs_mat(h, beta)[0]
        if node.get("maximally_mixed"):
            return np.eye(dim, dtype=complex) / dim
        if "pure" in node:
            vec = np.array([_parse_complex(v, f"{path}.pure[{i}]")
                            for i, v in enumerate(node["pure"])], dtype=complex)
            if vec.shape != (dim,):
                raise ScenarioError(path + ".pure", f"expected {dim} amplitudes")
            norm = np.linalg.norm(vec)
            if norm < 1e-12:
                raise ScenarioError(path + ".pure", "zero vector")
            vec = vec / norm
            return np.outer(vec, vec.conj())
        if "matrix" in node:
            rho = _parse_matrix(node["matrix"], path + ".matrix", names, dim)
            return _check_density(rho, path + ".matrix")
    raise ScenarioError(path, "state must be one of {gibbs| pure| maximally_mixed| matrix}")


def _check_density(rho: np.ndarray, path: str) -> np.ndarray:
    try:
        return validate_density(rho)
    except ValueError as exc:
        raise ScenarioError(path, f"invalid density matrix: {exc}") from None


# ---------------------------------------------------------------------------
# scenario object
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Scenario:
    """Validated scenario, ready for model assembly."""

    name: str
    beta: float
    mean_force: str                    # "exact" | "bare"
    s_dim: int
    b_dim: int
    h_bath: np.ndarray | None
    v_coupling: np.ndarray | None
    segments: list[tuple[float, float, np.ndarray]]
    variants: dict[tuple[str, ...], list[tuple[float, float, np.ndarray]]]
    steps: list[dict]
    feedback: dict[int, dict[tuple[str, ...], Instrument]]
    initial_sb: np.ndarray | None      # None: the Gibbs state of the initial H_SB
    report_times: list[float]
    options: dict
    checksum: str = ""


_TOP_KEYS = {"name", "beta", "mean_force", "system", "bath", "coupling",
             "matrices", "protocol", "system_hamiltonian", "time", "steps",
             "feedback", "initial", "report_times", "options"}


def _parse_instrument(node, path, names, s_dim) -> Instrument:
    if not isinstance(node, Mapping) or "outcomes" not in node:
        raise ScenarioError(path, "instrument needs an 'outcomes' list")
    outcomes = []
    for i, oc in enumerate(node["outcomes"]):
        opath = f"{path}.outcomes[{i}]"
        label = str(oc.get("label", i + 1))
        kraus_nodes = oc.get("kraus")
        if not kraus_nodes:
            raise ScenarioError(opath, "outcome needs a nonempty 'kraus' list")
        kraus = [_parse_matrix(kn, f"{opath}.kraus[{j}]", names, s_dim)
                 for j, kn in enumerate(kraus_nodes)]
        outcomes.append((label, CPMap(("S",), kraus)))
    try:
        return Instrument(outcomes)
    except ValueError as exc:
        # the instrument's own message names the completeness residual
        raise ScenarioError(path, f"invalid instrument: {exc}") from None


def _parse_segments(node, path, names, s_dim, t_start, t_end) -> list:
    if not isinstance(node, Sequence) or isinstance(node, str):
        raise ScenarioError(path, "protocol must be a list of segments")
    segs = []
    for i, sn in enumerate(node):
        spath = f"{path}[{i}]"
        if not isinstance(sn, Mapping) or "system" not in sn:
            raise ScenarioError(spath, "segment needs t0, t1 and 'system'")
        try:
            t0, t1 = float(sn["t0"]), float(sn["t1"])
        except (KeyError, TypeError, ValueError):
            raise ScenarioError(spath, "segment needs numeric t0 and t1") from None
        h = _parse_hermitian(sn["system"], spath + ".system", names, s_dim)
        segs.append((t0, t1, h))
    if not segs:
        raise ScenarioError(path, "protocol needs at least one segment")
    if not (same_instant(segs[0][0], t_start) and same_instant(segs[-1][1], t_end)):
        raise ScenarioError(path, f"segments must cover [{t_start}, {t_end}]")
    return segs


def parse_scenario_dict(data: Mapping, source: str = "<memory>") -> Scenario:
    if not isinstance(data, Mapping):
        raise ScenarioError(source, "scenario document must be a mapping")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ScenarioError(source, f"unknown top-level key(s) {sorted(unknown)}")
    for key in ("name", "beta", "system"):
        if key not in data:
            raise ScenarioError(source, f"missing required key {key!r}")
    name = str(data["name"])
    try:
        beta = float(data["beta"])
    except (TypeError, ValueError):
        raise ScenarioError("beta", "must be a number") from None
    if beta <= 0:
        raise ScenarioError("beta", f"must be positive, got {beta}")
    mean_force = str(data.get("mean_force", "exact"))
    if mean_force not in ("exact", "bare"):
        raise ScenarioError("mean_force", f"must be 'exact' or 'bare', got {mean_force!r}")

    s_dim = int(data["system"].get("dim", 0))
    if s_dim < 2:
        raise ScenarioError("system.dim", f"needs dimension >= 2, got {s_dim}")

    names: dict[str, np.ndarray] = {}
    for mname, mnode in (data.get("matrices") or {}).items():
        names[str(mname)] = _parse_matrix(mnode, f"matrices.{mname}", names)

    bath = data.get("bath") or {}
    b_dim = int(bath.get("dim", 1))
    if b_dim < 1:
        raise ScenarioError("bath.dim", f"needs dimension >= 1, got {b_dim}")
    h_bath = None
    if "hamiltonian" in bath:
        h_bath = _parse_hermitian(bath["hamiltonian"], "bath.hamiltonian", names, b_dim)
    v_coupling = None
    if data.get("coupling") is not None:
        v_coupling = _parse_hermitian(data["coupling"], "coupling", names, s_dim * b_dim)

    # time horizon and drive
    steps_node = data.get("steps") or []
    report_times = [float(t) for t in (data.get("report_times") or [])]
    tspan = data.get("time") or {}
    t_start = float(tspan.get("start", 0.0))
    default_end = max([t_start + 1.0] + report_times
                      + [float(s.get("time", t_start)) for s in steps_node])
    t_end = float(tspan.get("end", default_end))
    if not before(t_start, t_end):
        raise ScenarioError("time", f"end {t_end} must exceed start {t_start}")

    if "protocol" in data and "system_hamiltonian" in data:
        raise ScenarioError("protocol", "give either 'protocol' or "
                                        "'system_hamiltonian', not both")
    if "protocol" in data:
        segments = _parse_segments(data["protocol"], "protocol", names, s_dim,
                                   t_start, t_end)
    else:
        h0 = _parse_hermitian(data.get("system_hamiltonian", {"zeros": s_dim}),
                              "system_hamiltonian", names, s_dim)
        segments = [(t_start, t_end, h0)]

    # steps
    steps: list[dict] = []
    for i, sn in enumerate(steps_node):
        spath = f"steps[{i}]"
        if not isinstance(sn, Mapping) or "time" not in sn:
            raise ScenarioError(spath, "step needs a 'time'")
        entry: dict = {"time": float(sn["time"])}
        if ("instrument" in sn) == ("collision" in sn):
            raise ScenarioError(spath, "step needs exactly one of "
                                       "'instrument' or 'collision'")
        if "instrument" in sn:
            entry["instrument"] = _parse_instrument(sn["instrument"],
                                                    spath + ".instrument", names, s_dim)
            if "ancilla_hamiltonian" in sn:
                entry["h_ancilla"] = _parse_hermitian(
                    sn["ancilla_hamiltonian"], spath + ".ancilla_hamiltonian", names)
        elif "ancilla_hamiltonian" in sn:
            raise ScenarioError(spath + ".ancilla_hamiltonian",
                                "a collision step declares its ancilla Hamiltonian "
                                "as collision.ancilla.hamiltonian")
        else:
            col = sn["collision"]
            cpath = spath + ".collision"
            anc = col.get("ancilla") or {}
            d_anc = int(anc.get("dim", 0))
            if d_anc < 1:
                raise ScenarioError(cpath + ".ancilla.dim", "needs a positive dim")
            h_anc_node = anc.get("hamiltonian")
            h_anc = None if h_anc_node is None else _parse_hermitian(
                h_anc_node, cpath + ".ancilla.hamiltonian", names, d_anc)
            state = _parse_state(anc.get("state", {"pure": [1.0] + [0.0] * (d_anc - 1)}),
                                 cpath + ".ancilla.state", d_anc, beta, h_anc, names)
            unode = col.get("unitary")
            if unode == "swap" or (isinstance(unode, Mapping) and unode.get("swap")):
                if d_anc != s_dim:
                    raise ScenarioError(cpath + ".unitary",
                                        "swap needs ancilla dim == system dim")
                u = np.eye(s_dim * d_anc, dtype=complex)[
                    [a * s_dim + s for s in range(s_dim) for a in range(d_anc)]]
            else:
                u = _parse_matrix(unode, cpath + ".unitary", names, s_dim * d_anc)
            projs = col.get("projectors")
            if projs is not None:
                projs = [_parse_matrix(p, f"{cpath}.projectors[{j}]", names, d_anc)
                         for j, p in enumerate(projs)]
            entry["collision"] = {
                "ancilla_state": state, "unitary": u, "projectors": projs,
                "labels": col.get("labels")}
            entry["h_ancilla"] = h_anc
        if "window" in sn:
            width = float(sn["window"].get("width", 0.0)) \
                if isinstance(sn["window"], Mapping) else float(sn["window"])
            if width <= 0:
                raise ScenarioError(spath + ".window", "width must be positive")
            entry["window"] = width
        steps.append(entry)

    # feedback
    feedback: dict[int, dict[tuple[str, ...], Instrument]] = {}
    variants: dict[tuple[str, ...], list] = {}
    for i, fn in enumerate(data.get("feedback") or []):
        fpath = f"feedback[{i}]"
        if not isinstance(fn, Mapping) or "prefix" not in fn:
            raise ScenarioError(fpath, "feedback entry needs a 'prefix'")
        prefix = tuple(str(l) for l in fn["prefix"])
        if not prefix:
            raise ScenarioError(fpath + ".prefix", "prefix cannot be empty")
        for snode, inode in (fn.get("instruments") or {}).items():
            k = int(snode)
            if not 0 <= k < len(steps):
                raise ScenarioError(f"{fpath}.instruments.{snode}",
                                    f"no step with index {k}")
            if "instrument" not in steps[k]:
                raise ScenarioError(f"{fpath}.instruments.{snode}",
                                    "only instrument steps accept overrides")
            feedback.setdefault(k, {})[prefix] = _parse_instrument(
                inode, f"{fpath}.instruments.{snode}", names, s_dim)
        if "protocol" in fn:
            variants[prefix] = _parse_segments(fn["protocol"], fpath + ".protocol",
                                               names, s_dim, t_start, t_end)

    # initial state
    initial = data.get("initial") or {}
    sb_node = initial.get("sb", "gibbs")
    initial_gibbs = sb_node == "gibbs" or (isinstance(sb_node, Mapping)
                                           and sb_node.get("gibbs"))
    initial_sb = None
    if not initial_gibbs:
        if not isinstance(sb_node, Mapping) or "matrix" not in sb_node:
            raise ScenarioError("initial.sb", "must be 'gibbs' or {matrix: ...}")
        initial_sb = _check_density(
            _parse_matrix(sb_node["matrix"], "initial.sb.matrix", names,
                          s_dim * b_dim), "initial.sb.matrix")

    if not report_times:
        report_times = [t_end]
    for i, t in enumerate(report_times):
        if before(t, t_start) or before(t_end, t):
            raise ScenarioError(f"report_times[{i}]",
                                f"{t} outside [{t_start}, {t_end}]")

    options = dict(data.get("options") or {})
    if "prune_threshold" in options:
        raw_prune = options["prune_threshold"]
        try:
            prune = math.nan if isinstance(raw_prune, bool) else float(raw_prune)
        except (TypeError, ValueError):
            prune = math.nan
        if not 0.0 <= prune < 1.0:
            raise ScenarioError("options.prune_threshold",
                                f"must be a number in [0, 1), got {raw_prune!r}")
        options["prune_threshold"] = prune
    return Scenario(
        name=name, beta=beta, mean_force=mean_force, s_dim=s_dim, b_dim=b_dim,
        h_bath=h_bath, v_coupling=v_coupling,
        segments=segments, variants=variants, steps=steps, feedback=feedback,
        initial_sb=initial_sb,
        report_times=sorted(set(report_times)),
        options=options)


# libyaml's safe loader parses large matrices several times faster
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def parse_scenario(path: str) -> Scenario:
    """Load, parse and validate a scenario file."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ScenarioError(str(path), f"cannot read scenario: {exc}") from None
    try:
        data = yaml.load(raw.decode("utf-8"), Loader=_YAML_LOADER)
    except UnicodeDecodeError as exc:
        raise ScenarioError(str(path), f"not UTF-8: {exc}") from None
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f"line {mark.line + 1}" if mark else "unknown position"
        raise ScenarioError(str(path), f"YAML syntax error at {where}: {exc}") from None
    scenario = parse_scenario_dict(data, source=str(path))
    scenario.checksum = hashlib.sha256(raw).hexdigest()
    return scenario


def build_model(scenario: Scenario) -> AutonomousModel:
    """Assemble the inclusive model a scenario describes."""
    segs = [Segment(t0, t1, h) for t0, t1, h in scenario.segments]
    variants = {p: [Segment(t0, t1, h) for t0, t1, h in segs_]
                for p, segs_ in scenario.variants.items()}
    protocol = Protocol(segs, variants=variants)
    try:
        return AutonomousModel.assemble(
            s_dim=scenario.s_dim, b_dim=scenario.b_dim, beta=scenario.beta,
            protocol=protocol, h_bath=scenario.h_bath,
            v_coupling=scenario.v_coupling, steps=scenario.steps,
            feedback=scenario.feedback, sb_init=scenario.initial_sb,
            mean_force_bare=scenario.mean_force == "bare",
            name=scenario.name)
    except ValueError as exc:
        raise ScenarioError(scenario.name, f"cannot assemble model: {exc}") from None

