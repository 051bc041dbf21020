"""Vectorized dependence & legality engine (``REPRO_ANALYSIS=vectorized``).

Mirrors the execution-engine split of ``repro.runtime``: the scalar walk
in :mod:`repro.analysis.dependences` stays the executable specification;
this module derives *bit-identical* results from NumPy batch operations.

Dependence collection
---------------------
The scalar reference replays the program instance by instance, tracking
per array element the last writer, the readers since that write and a
two-deep read history.  Here the same information is recovered in bulk:

1. every statement's access subscripts are evaluated as vectorized affine
   maps over the batched instance enumeration (``runtime.instances``,
   shared with the interpreter engines and the trace simulator);
2. ``(array, cell)`` keys are flattened to integers and all access events
   are ordered by (cell, schedule position, access ordinal) — giving each
   cell's access history as a contiguous segment in exactly the order the
   scalar walk visits it;
3. segment scans (cumulative max/min/count with segment-start masking)
   yield, per event, the previous write, the next write, and the one- and
   two-back reads — from which RAW / WAW / WAR pair records follow as
   pure array expressions, including the compound-assignment WAR rule;
4. records are re-ordered by the position the scalar walk would have
   issued its ``add`` call, and each bucket's witnesses are the ones the
   scalar bounded-witness bucket ends with (append below
   ``_MAX_WITNESSES``, then crc32-slot rotation on the iterator-only
   instance repr).  After the first ``_MAX_WITNESSES`` records, every
   record overwrites its slot, so each slot holds the *last* record
   mapped to it (or its initial record if none is): records are scanned
   from the end in doubling chunks, crc32 runs only on those, and the
   scan stops once every slot is filled — on a coupon-collector count
   of records (~90 for 24 slots), not on the bucket's size.  The chosen
   witnesses stay int64 matrices (:class:`~.dependences.WitnessColumns`:
   iterator values plus the parameter binding), rendered into the
   reference's instance tuples only when ``Dependence.witnesses`` is
   read, so every stored witness — and every legality verdict
   downstream — is identical, not just equivalent.

Both record orderings (events in step 2, records in step 4) are sorts on
keys whose rows are pairwise distinct, so one ``argsort`` over a
composite int64 key gives the same order as the stable multi-key
``np.lexsort``; the composite is used only where its range provably fits
in int64, and ``lexsort`` remains the fallback.

Distance-vector sets are computed exhaustively as array differences over
the common iterators and deduplicated via integer encoding.

Legality checking
-----------------
``schedule_violations`` / ``parallel_violations`` batch all witnesses of
all dependences into per-(statement, names) groups — stacking the
witness columns directly, parsing instance tuples only for dependences
the reference engine produced — (cached per deps list, since the
memoized dependence lists are reused across thousands of candidate
queries), evaluate the legality schedules as vectorized affine
maps over the witness environments, and compare source/target schedule
keys with one row-wise lexicographic comparison.
"""

from __future__ import annotations

import threading
import zlib
from collections import OrderedDict
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..ir.affine import affine_column
from ..ir.program import Program
from ..ir.schedule import Schedule
from .dependences import WitnessColumns, WitnessSide

KIND_RAW = "RAW"
KIND_WAW = "WAW"
KIND_WAR = "WAR"


# ----------------------------------------------------------------------
# Dependence collection
# ----------------------------------------------------------------------
class _StmtMeta:
    """Per-statement helpers for witness columns and rotation slots."""

    def __init__(self, si: int, names: Sequence[str]) -> None:
        self.si = si
        #: column permutation putting iterator values in sorted-name order
        self.order = sorted(range(len(names)), key=lambda d: names[d])
        self.sorted_names = tuple(names[d] for d in self.order)
        # ``repr`` template of the iterator-only instance
        # ``(si, (('i', v), ...))`` — the witness-rotation slot key of the
        # reference walk, rebuilt here via one %-format per record
        if not names:
            inner = "()"
        elif len(names) == 1:
            inner = f"(('{self.sorted_names[0]}', %d),)"
        else:
            inner = ("("
                     + ", ".join(f"('{nm}', %d)" for nm in self.sorted_names)
                     + ")")
        self.slot_template = f"({si}, {inner})"

    def crc_slots(self, pts: np.ndarray, width: int) -> np.ndarray:
        """Rotation slot of each instance (rows of domain-order ``pts``)."""
        template = self.slot_template
        rows = pts[:, self.order].tolist()
        return np.fromiter(
            (zlib.crc32((template % tuple(row)).encode()) % width
             for row in rows), dtype=np.int64, count=len(rows))

    def side(self, pts: np.ndarray, param_names: Tuple[str, ...],
             param_row: np.ndarray) -> WitnessSide:
        """Witness columns of the instances ``pts`` at one binding."""
        d = len(self.order)
        vals = np.empty((len(pts), d + len(param_row)), dtype=np.int64)
        vals[:, :d] = pts[:, self.order]
        vals[:, d:] = param_row
        return (self.si, self.sorted_names + param_names, vals)


def _rotated(meta: _StmtMeta, tgt_pts: np.ndarray, width: int
             ) -> np.ndarray:
    """Record index each witness slot holds after the scalar rotation.

    Records ``0..width-1`` fill the slots in order; every later record
    overwrites slot ``crc32(target instance) % width``.  A slot thus
    ends with the last record mapped to it, or its initial record if no
    later one is: scan from the end in doubling chunks and stop once
    every slot is filled or the records run out.
    """
    chosen = np.arange(width)
    filled = np.zeros(width, dtype=bool)
    hi, chunk = len(tgt_pts), 4 * width
    while hi > width and not filled.all():
        lo = max(width, hi - chunk)
        recs = np.arange(hi - 1, lo - 1, -1)  # newest first
        slots, first = np.unique(meta.crc_slots(tgt_pts[recs], width),
                                 return_index=True)
        fresh = ~filled[slots]
        chosen[slots[fresh]] = recs[first[fresh]]
        filled[slots[fresh]] = True
        hi, chunk = lo, 2 * chunk
    return chosen


_INT64_MAX = np.iinfo(np.int64).max


def _composite_key(columns: Sequence[np.ndarray]) -> Optional[np.ndarray]:
    """One int64 key ordering rows like ``columns`` (primary first).

    Every column must be non-negative.  Each column is weighted by the
    product of the ranges of the columns after it, so the key orders
    rows exactly lexicographically — and distinct rows get distinct
    keys.  ``None`` when the key range would overflow int64.
    """
    radices = [int(col.max()) + 1 for col in columns]
    span = 1
    for radix in radices:
        span *= radix
    if span > _INT64_MAX:
        return None
    key = np.zeros(len(columns[0]), dtype=np.int64)
    for col, radix in zip(columns, radices):
        key *= radix
        key += col
    return key


def _distinct_rows_order(columns: Sequence[np.ndarray]) -> np.ndarray:
    """The stable ``np.lexsort`` order of rows keyed by ``columns``
    (primary first), for rows that are pairwise distinct.

    Distinct rows leave no ties, so any sort of the composite key agrees
    with the stable lexsort; lexsort is the fallback when it overflows.
    """
    key = _composite_key(columns)
    if key is None:
        return np.lexsort(tuple(reversed(columns)))
    return np.argsort(key)


def collect_pairs(program: Program, params: Mapping[str, int],
                  budget: int, exceeded: Callable[[int], Exception],
                  max_witnesses: int, rotate: bool = True):
    """One concretization pass; the reference's return structure.

    Returns ``({kind: {(src_si, tgt_si, array): WitnessColumns}},
    {(kind, src_si, tgt_si, array): {distance vec, ...}})``; each
    bucket's columns render to exactly the scalar walk's witness list.

    ``rotate=False`` keeps the first ``max_witnesses`` records per
    bucket instead of crc-rotating later ones in — the policy of the
    scaled non-uniform pass, where distance sets stay exhaustive and
    the per-record crc over a much larger instance space would dominate
    the pass.
    """
    from ..runtime.instances import sorted_instances

    batch = sorted_instances(program, params, budget, exceeded,
                             honor_guards=True)
    raw_pairs: Dict = {}
    waw_pairs: Dict = {}
    war_pairs: Dict = {}
    distance_sets: Dict[Tuple[str, int, int, str], set] = {}
    out = ({KIND_RAW: raw_pairs, KIND_WAW: waw_pairs, KIND_WAR: war_pairs},
           distance_sets)
    n = len(batch)
    if n == 0:
        return out

    # ------------------------------------------------------------------
    # 1-2: per-access coordinate columns, flattened cell keys, event sort
    # ------------------------------------------------------------------
    spaces: Dict[Tuple[str, int], int] = {}   # (array, rank) -> space id
    chunks = []  # (space id, [coord columns], gpos, ordinal, is_write)
    metas: List[_StmtMeta] = []
    for si, stmt in enumerate(program.statements):
        mask = batch.si == si
        gpos = np.flatnonzero(mask)
        pts = batch.points[si][batch.row[mask]]
        names = stmt.domain.iterator_names
        metas.append(_StmtMeta(si, names))
        m = len(gpos)
        if m == 0:
            continue
        columns = {name: pts[:, d] for d, name in enumerate(names)}
        accesses = [(ref, False) for ref in stmt.reads()]
        accesses.append((stmt.write(), True))
        for ordinal, (ref, is_write) in enumerate(accesses):
            sid = spaces.setdefault((ref.array, len(ref.indices)),
                                    len(spaces))
            coords = [affine_column(ix, columns, params, m)
                      for ix in ref.indices]
            chunks.append((sid, coords, gpos, ordinal, is_write))

    # flatten each space's cells to non-negative integers (subscripts may
    # be arbitrary ints — the reference keys dicts on raw tuples, so no
    # bounds assumption is allowed here)
    mins: Dict[int, np.ndarray] = {}
    maxs: Dict[int, np.ndarray] = {}
    for sid, coords, _g, _o, _w in chunks:
        if not coords:
            continue
        lo = np.array([c.min() for c in coords], dtype=np.int64)
        hi = np.array([c.max() for c in coords], dtype=np.int64)
        if sid in mins:
            np.minimum(mins[sid], lo, out=mins[sid])
            np.maximum(maxs[sid], hi, out=maxs[sid])
        else:
            mins[sid], maxs[sid] = lo, hi
    strides: Dict[int, np.ndarray] = {}
    for sid, lo in mins.items():
        extent = maxs[sid] - lo + 1
        stride = np.ones(len(lo), dtype=np.int64)
        stride[:-1] = np.cumprod(extent[::-1], dtype=np.int64)[::-1][1:]
        strides[sid] = stride

    parts_sid, parts_flat, parts_g, parts_ord, parts_w = [], [], [], [], []
    for sid, coords, gpos, ordinal, is_write in chunks:
        m = len(gpos)
        flat = np.zeros(m, dtype=np.int64)
        if coords:
            lo, stride = mins[sid], strides[sid]
            for d, col in enumerate(coords):
                flat += (col - lo[d]) * stride[d]
        parts_sid.append(np.full(m, sid, dtype=np.int64))
        parts_flat.append(flat)
        parts_g.append(gpos)
        parts_ord.append(np.full(m, ordinal, dtype=np.int64))
        parts_w.append(np.full(m, is_write, dtype=bool))
    ev_sid = np.concatenate(parts_sid)
    ev_flat = np.concatenate(parts_flat)
    ev_g = np.concatenate(parts_g)
    ev_ord = np.concatenate(parts_ord)
    ev_w = np.concatenate(parts_w)

    # cell-major, then schedule position, then access ordinal — each
    # cell's history is one contiguous segment in scalar visit order
    # ((position, ordinal) names one event, so the rows are distinct)
    order = _distinct_rows_order((ev_sid, ev_flat, ev_g, ev_ord))
    ev_sid, ev_flat = ev_sid[order], ev_flat[order]
    ev_g, ev_ord, ev_w = ev_g[order], ev_ord[order], ev_w[order]
    m_ev = len(ev_g)
    idx = np.arange(m_ev, dtype=np.int64)

    # ------------------------------------------------------------------
    # 3: segment scans — previous/next write, one- and two-back reads
    # ------------------------------------------------------------------
    new_seg = np.empty(m_ev, dtype=bool)
    new_seg[0] = True
    new_seg[1:] = ((ev_sid[1:] != ev_sid[:-1])
                   | (ev_flat[1:] != ev_flat[:-1]))
    seg_id = np.cumsum(new_seg) - 1
    seg_start = idx[new_seg][seg_id]

    w_idx = np.where(ev_w, idx, np.int64(-1))
    lw_incl = np.maximum.accumulate(w_idx)
    prev_w = np.empty(m_ev, dtype=np.int64)
    prev_w[0] = -1
    prev_w[1:] = lw_incl[:-1]
    has_prev_w = prev_w >= seg_start

    nw_incl = np.minimum.accumulate(
        np.where(ev_w, idx, np.int64(m_ev))[::-1])[::-1]
    next_w = np.empty(m_ev, dtype=np.int64)
    next_w[:-1] = nw_incl[1:]
    next_w[-1] = m_ev
    has_next_w = (next_w < m_ev)
    safe_next = np.minimum(next_w, m_ev - 1)
    has_next_w &= seg_id[safe_next] == seg_id

    is_r = ~ev_w
    rpos = idx[is_r]
    reads_before = np.cumsum(is_r) - is_r
    if len(rpos):
        last_r = rpos[np.maximum(reads_before - 1, 0)]
        last2_r = rpos[np.maximum(reads_before - 2, 0)]
    else:
        last_r = last2_r = np.zeros(m_ev, dtype=np.int64)
    has_last_r = (reads_before >= 1) & (last_r >= seg_start)
    has_last2_r = (reads_before >= 2) & (last2_r >= seg_start)

    # RAW: read with a previous write on its cell
    raw_mask = is_r & has_prev_w
    raw_src, raw_tgt = prev_w[raw_mask], idx[raw_mask]

    # WAW: write with a previous write
    waw_mask = ev_w & has_prev_w
    waw_src, waw_tgt = prev_w[waw_mask], idx[waw_mask]

    # WAR via the readers-since-last-write list: each read is claimed by
    # the first write after it on the same cell (which also clears it),
    # skipped when writer and reader are the same instance
    warr_mask = is_r & has_next_w
    warr_src, warr_tgt = idx[warr_mask], next_w[warr_mask]
    keep = ev_g[warr_src] != ev_g[warr_tgt]
    warr_src, warr_tgt = warr_src[keep], warr_tgt[keep]

    # WAR via the two-deep read history (compound assignments): the most
    # recent read by a *different* instance, regardless of writes between
    w_events = idx[ev_w]
    g_w = ev_g[w_events]
    newest, has_newest = last_r[w_events], has_last_r[w_events]
    older, has_older = last2_r[w_events], has_last2_r[w_events]
    newest_is_self = has_newest & (ev_g[newest] == g_w)
    reader = np.where(newest_is_self, older, newest)
    has_reader = np.where(newest_is_self, has_older, has_newest)
    keep = has_reader & (ev_g[reader] != g_w)
    warc_src, warc_tgt = reader[keep], w_events[keep]

    # ------------------------------------------------------------------
    # 4: group records per bucket, replay witness selection, distances
    # ------------------------------------------------------------------
    name_id = {name: i
               for i, name in enumerate(sorted({a for a, _r in spaces}))}
    id_name = {i: name for name, i in name_id.items()}
    sid_name = np.zeros(max(len(spaces), 1), dtype=np.int64)
    for (array, _rank), sid in spaces.items():
        sid_name[sid] = name_id[array]

    param_names = tuple(sorted(params))
    param_row = np.array([params[p] for p in param_names], dtype=np.int64)

    def emit(pairs_out, kind, src_ev, tgt_ev, phase, sub):
        """Replay one kind's ``add`` stream bucket by bucket.

        ``phase``/``sub`` order records the way the scalar walk issues
        them within one write event (WAW, then the readers list in
        append order, then the compound-history pair); across events the
        target's schedule position orders everything.  The target event
        with ``phase``/``sub`` names one record, so the rows are
        distinct.
        """
        if len(src_ev) == 0:
            return
        src_si = batch.si[ev_g[src_ev]]
        tgt_si = batch.si[ev_g[tgt_ev]]
        arr = sid_name[ev_sid[tgt_ev]]
        rec_order = _distinct_rows_order((src_si, tgt_si, arr, ev_g[tgt_ev],
                                          ev_ord[tgt_ev], phase, sub))
        src_ev, tgt_ev = src_ev[rec_order], tgt_ev[rec_order]
        src_si, tgt_si, arr = (src_si[rec_order], tgt_si[rec_order],
                               arr[rec_order])
        bounds = np.flatnonzero(
            np.concatenate(([True],
                            (src_si[1:] != src_si[:-1])
                            | (tgt_si[1:] != tgt_si[:-1])
                            | (arr[1:] != arr[:-1]),
                            [True])))
        for a, b in zip(bounds[:-1], bounds[1:]):
            ssi, tsi = int(src_si[a]), int(tgt_si[a])
            key = (ssi, tsi, id_name[int(arr[a])])
            src_pts = batch.points[ssi][batch.row[ev_g[src_ev[a:b]]]]
            tgt_pts = batch.points[tsi][batch.row[ev_g[tgt_ev[a:b]]]]
            _merge_distances(program, distance_sets, kind, key,
                             ssi, tsi, src_pts, tgt_pts)
            if b - a > max_witnesses and rotate:
                chosen = _rotated(metas[tsi], tgt_pts, max_witnesses)
            else:
                chosen = np.arange(min(b - a, max_witnesses))
            pairs_out[key] = WitnessColumns(
                metas[ssi].side(src_pts[chosen], param_names, param_row),
                metas[tsi].side(tgt_pts[chosen], param_names, param_row))

    emit(raw_pairs, KIND_RAW, raw_src, raw_tgt,
         np.zeros(len(raw_src), dtype=np.int64),
         np.zeros(len(raw_src), dtype=np.int64))
    emit(waw_pairs, KIND_WAW, waw_src, waw_tgt,
         np.zeros(len(waw_src), dtype=np.int64),
         np.zeros(len(waw_src), dtype=np.int64))
    war_src = np.concatenate((warr_src, warc_src))
    war_tgt = np.concatenate((warr_tgt, warc_tgt))
    war_phase = np.concatenate((np.full(len(warr_src), 1, dtype=np.int64),
                                np.full(len(warc_src), 2, dtype=np.int64)))
    war_sub = np.concatenate((warr_src,
                              np.zeros(len(warc_src), dtype=np.int64)))
    emit(war_pairs, KIND_WAR, war_src, war_tgt, war_phase, war_sub)
    return out


def _merge_distances(program: Program, distance_sets: Dict, kind: str,
                     key: Tuple[int, int, str], ssi: int, tsi: int,
                     src_pts: np.ndarray, tgt_pts: np.ndarray) -> None:
    """Exhaustive distance vectors of one class (integer-encoded dedup)."""
    src_names = program.statements[ssi].domain.iterator_names
    tgt_names = program.statements[tsi].domain.iterator_names
    tgt_pos = {name: d for d, name in enumerate(tgt_names)}
    common = [(d, tgt_pos[name]) for d, name in enumerate(src_names)
              if name in tgt_pos]
    target = distance_sets.setdefault((kind,) + key, set())
    if not common:
        target.add(())
        return
    diff = (tgt_pts[:, [t for _s, t in common]]
            - src_pts[:, [s for s, _t in common]])
    lo = diff.min(axis=0)
    extent = diff.max(axis=0) - lo + 1
    stride = np.ones(len(common), dtype=np.int64)
    stride[:-1] = np.cumprod(extent[::-1], dtype=np.int64)[::-1][1:]
    codes = np.unique(((diff - lo) * stride).sum(axis=1))
    vecs = []
    for code in codes.tolist():
        vec = []
        for d in range(len(common)):
            vec.append(code // int(stride[d]) + int(lo[d]))
            code %= int(stride[d])
        vecs.append(tuple(vec))
    target.update(vecs)


# ----------------------------------------------------------------------
# Batched legality checking
# ----------------------------------------------------------------------
class _WitnessPack:
    """All witnesses of a deps list as per-(statement, names) matrices."""

    def __init__(self, groups, per_dep) -> None:
        #: [(statement index, env names, (n, len(names)) int64 values)]
        self.groups = groups
        #: per dep: (src gid, src slice, tgt gid, tgt slice) or None
        self.per_dep = per_dep


_PACK_CACHE: "OrderedDict" = OrderedDict()
_PACK_LOCK = threading.Lock()
_PACK_CAPACITY = 256
_HETEROGENEOUS = "heterogeneous"


def _tuple_side(insts) -> Optional[WitnessSide]:
    """Columns of one side of rendered witness pairs (None when the
    environments are heterogeneous)."""
    si = insts[0][0]
    names = tuple(n for n, _v in insts[0][1])
    rows = []
    for inst_si, env in insts:
        if inst_si != si or len(env) != len(names):
            return None
        rows.append([v for _n, v in env])
    return si, names, np.asarray(rows, dtype=np.int64).reshape(
        len(rows), len(names))


def _build_pack(deps: Sequence) -> Optional[_WitnessPack]:
    group_ids: Dict[Tuple[int, Tuple[str, ...]], int] = {}
    group_parts: List[List[np.ndarray]] = []
    group_sizes: List[int] = []
    per_dep = []

    def side_rows(side: WitnessSide) -> Tuple[int, slice]:
        si, names, vals = side
        gid = group_ids.setdefault((si, names), len(group_parts))
        if gid == len(group_parts):
            group_parts.append([])
            group_sizes.append(0)
        start = group_sizes[gid]
        group_parts[gid].append(vals)
        group_sizes[gid] += len(vals)
        return gid, slice(start, start + len(vals))

    for dep in deps:
        data = dep.witness_data
        if not len(data):
            per_dep.append(None)
            continue
        if isinstance(data, WitnessColumns):
            src, tgt = data.src, data.tgt
        else:  # rendered pairs (reference engine)
            src = _tuple_side([pair[0] for pair in data])
            tgt = _tuple_side([pair[1] for pair in data])
            if src is None or tgt is None:
                return None
        per_dep.append(side_rows(src) + side_rows(tgt))
    groups = [(si, names, np.concatenate(parts))
              for (si, names), parts in zip(group_ids, group_parts)]
    return _WitnessPack(groups, per_dep)


def _witness_pack(deps: Sequence) -> Optional[_WitnessPack]:
    """Cached :func:`_build_pack`.

    Keyed by the identity of the dependence objects; the entry pins the
    deps tuple so ids stay valid while cached.  Memoized dependence
    lists are queried by every candidate schedule of every persona and
    compiler pass, so stacking their witness columns is paid once.
    """
    key = tuple(map(id, deps))
    with _PACK_LOCK:
        hit = _PACK_CACHE.get(key)
        if hit is not None:
            _PACK_CACHE.move_to_end(key)
            return None if hit[1] is _HETEROGENEOUS else hit[1]
    pack = _build_pack(deps)
    with _PACK_LOCK:
        _PACK_CACHE[key] = (tuple(deps),
                            _HETEROGENEOUS if pack is None else pack)
        _PACK_CACHE.move_to_end(key)
        while len(_PACK_CACHE) > _PACK_CAPACITY:
            _PACK_CACHE.popitem(last=False)
    return pack


def _group_keys(pack: _WitnessPack, schedules: Sequence[Schedule],
                params: Mapping[str, int], cache: Dict[int, np.ndarray],
                gid: int) -> np.ndarray:
    keys = cache.get(gid)
    if keys is None:
        si, names, vals = pack.groups[gid]
        columns = {name: vals[:, j] for j, name in enumerate(names)}
        keys = schedules[si].evaluate_columns(columns, params, len(vals))
        cache[gid] = keys
    return keys


def _lex_compare(skeys: np.ndarray, tkeys: np.ndarray):
    """Row-wise lexicographic verdicts: (src > tgt, src == tgt) masks."""
    diff = skeys - tkeys
    nz = diff != 0
    has = nz.any(axis=1)
    lead = diff[np.arange(len(diff)), nz.argmax(axis=1)]
    return has & (lead > 0), ~has


def schedule_violations_batch(program: Program, deps: Sequence,
                              params: Mapping[str, int],
                              schedules: Sequence[Schedule]
                              ) -> Optional[List]:
    """Batched :func:`..dependences.schedule_violations`.

    Returns None when the witness shapes don't pack (heterogeneous
    environments) — the caller falls back to the reference loop.
    """
    pack = _witness_pack(deps)
    if pack is None:
        return None
    name_to_idx = {s.name: i for i, s in enumerate(program.statements)}
    key_cache: Dict[int, np.ndarray] = {}
    violated = []
    for dep, entry in zip(deps, pack.per_dep):
        if dep.source not in name_to_idx or dep.target not in name_to_idx:
            violated.append(dep)
            continue
        if entry is None:
            continue
        sgid, ssl, tgid, tsl = entry
        skeys = _group_keys(pack, schedules, params, key_cache, sgid)[ssl]
        tkeys = _group_keys(pack, schedules, params, key_cache, tgid)[tsl]
        greater, equal = _lex_compare(skeys, tkeys)
        if greater.any() or (
                name_to_idx[dep.source] >= name_to_idx[dep.target]
                and equal.any()):
            violated.append(dep)
    return violated


def parallel_violations_batch(program: Program, deps: Sequence, dim: int,
                              params: Mapping[str, int],
                              schedules: Sequence[Schedule]
                              ) -> Optional[List]:
    """Batched :func:`..dependences.parallel_violations`."""
    pack = _witness_pack(deps)
    if pack is None:
        return None
    key_cache: Dict[int, np.ndarray] = {}
    violated = []
    for dep, entry in zip(deps, pack.per_dep):
        if entry is None:
            continue
        sgid, ssl, tgid, tsl = entry
        skeys = _group_keys(pack, schedules, params, key_cache, sgid)[ssl]
        tkeys = _group_keys(pack, schedules, params, key_cache, tgid)[tsl]
        if dim >= skeys.shape[1]:
            continue
        carried = ((skeys[:, :dim] == tkeys[:, :dim]).all(axis=1)
                   & (skeys[:, dim] != tkeys[:, dim]))
        if carried.any():
            violated.append(dep)
    return violated
