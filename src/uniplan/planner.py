"""Optimal rapidly-exploring random tree over unicycle poses.

Each iteration draws a (goal-biased) free pose, projects it into the step
neighborhood of its nearest tree vertex, and, in informed mode once a goal
cost is known, rejects it when even the cost floor from the start plus the
heuristic to the goal exceeds that cost. It then gates the connection with
the safe-reachability test, picks the cheapest safe parent among the
decoupled neighborhood, applies the exact informed test, inserts, rewires
neighbors through the new vertex when that is strictly cheaper and safe,
and prunes the vertices the informed bound rules out. In informed mode,
once a goal vertex exists, draws come in look-ahead blocks, whose nearest
queries and floor tests run on arrays (see build_tree). Cost-to-come is
maintained incrementally on the tree (rewiring shifts whole subtrees),
which matches a graph-search recomputation because the edge set stays a
tree. A set goal_index always names an alive vertex: prune never removes
the best path (asserted), and a loaded graph is all alive.

Everything is deterministic given the seed: one fixed RNG stream, fixed
iteration structure, and index-based tie breaking throughout.
"""

from __future__ import annotations

import math

import numpy as np

from .control import Pose
from .metrics import PoseColumns, WeightedDistance, objective_distance, project
from .prediction import issafe
from .world import (Problem, UniformDraws, json_numbers, sample_free_pose,
                    sample_uniform_pose)

_PRUNE_SLACK = 1e-9  # keeps float noise from flagging best-path vertices
_ROUNDING = 1e-12  # relative margin of the block floor test over the scalar one
_PAD = 1e-9  # relative widening of cell ranges and distance bounds against rounding
_LOOKAHEAD = 512  # most draws x vertex slots one look-ahead block holds


class PlanningError(Exception):
    pass


def heuristic(p: Pose, q: Pose, wd: WeightedDistance, mode: str) -> float:
    """Admissible lower bound on the travel cost between two poses.

    It rests on the cost floor of every distance objective: the value from
    p to q is at least alpha * |p - q|, because the dual-headway mismatch
    term is >= 1 - 2 kappa, the euccos factor 2 - cos is >= 1 and every
    orientation term is >= 0. By the triangle inequality a path's cost is
    at least alpha times the distance between its ends. The "uniform"
    objective (unit edge costs) has no such floor and allows no informed
    mode. nearest_index bounds its search and build_tree rejects samples
    early with the same floor, through cost_floor.
    """
    if mode in ("off", "zero"):
        return 0.0
    if mode == "euclidean":
        return wd.alpha * math.hypot(p.x - q.x, p.y - q.y)
    raise ValueError(f"unknown heuristic mode {mode!r}")


def heuristic_arr(xs: np.ndarray, ys: np.ndarray, q: Pose, wd: WeightedDistance,
                  mode: str) -> np.ndarray:
    """heuristic() from each position (xs, ys) to q, for prune and the
    block floor test; np.hypot may round a few ulps off math.hypot."""
    if mode in ("off", "zero"):
        return np.zeros(np.shape(xs))
    if mode == "euclidean":
        return wd.alpha * np.hypot(xs - q.x, ys - q.y)
    raise ValueError(f"unknown heuristic mode {mode!r}")


def cost_floor(wd: WeightedDistance, dist: float) -> float:
    """Least value, rounding allowed for, of wd between positions dist apart.

    The floor alpha * dist of heuristic(), widened by _PAD relative and
    _PAD * beta absolute: 2 kappa + m and the orientation terms can each
    come out a few ulps under their bounds, and a cost-to-come sums such
    values along a path. It is the inverse of nearest_index's reach.
    """
    return (wd.alpha * dist - _PAD * wd.beta) / (1.0 + _PAD)


class CellIndex:
    """Vertex indices bucketed by square cell over a rectangle.

    A position maps to the clamped floor of its offset over the cell side,
    so a position outside the rectangle files into an edge cell. That map is
    monotone even in floating point, so every position inside a coordinate
    range lies in the cell range of the range's ends. A cell is a growable
    index array with its fill count; it holds indices in insertion order,
    which is ascending. Positions never move, so a vertex stays filed when
    it dies, and the queries that read the cells mask out dead vertices.
    """

    def __init__(self, x_min: float, y_min: float, x_max: float, y_max: float,
                 side: float):
        self.x0, self.y0, self.side = x_min, y_min, side
        self.nx = max(1, math.ceil((x_max - x_min) / side))
        self.ny = max(1, math.ceil((y_max - y_min) / side))
        self.count = self.nx * self.ny
        self.cells: dict[tuple[int, int], list] = {}  # cell -> [indices, fill]

    def cell(self, x: float, y: float) -> tuple[int, int]:
        return (int(min(max((x - self.x0) / self.side, 0.0), self.nx - 1)),
                int(min(max((y - self.y0) / self.side, 0.0), self.ny - 1)))

    def add(self, i: int, x: float, y: float) -> None:
        bucket = self.cells.setdefault(self.cell(x, y), [np.empty(8, dtype=np.intp), 0])
        arr, fill = bucket
        if fill == len(arr):
            arr = bucket[0] = np.concatenate((arr, np.empty(fill, dtype=np.intp)))
        arr[fill] = i
        bucket[1] = fill + 1

    def box(self, x: float, y: float, reach: float) -> tuple[int, int, int, int]:
        """Cell range (c0, c1, r0, r1) holding every position within reach
        of (x, y) per axis, widened so rounding cannot drop one."""
        pad = reach + _PAD * (1.0 + abs(x) + abs(y) + reach)
        c0, r0 = self.cell(x - pad, y - pad)
        c1, r1 = self.cell(x + pad, y + pad)
        return c0, c1, r0, r1

    def gather(self, box, skip=None) -> np.ndarray:
        """Indices filed in the cells of box and not in the cells of skip."""
        c0, c1, r0, r1 = box
        parts = []
        for c in range(c0, c1 + 1):
            for r in range(r0, r1 + 1):
                if skip is not None and skip[0] <= c <= skip[1] and skip[2] <= r <= skip[3]:
                    continue
                bucket = self.cells.get((c, r))
                if bucket is not None and bucket[1]:
                    parts.append(bucket[0][:bucket[1]])
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.intp)

    def cell_count(self, box) -> int:
        c0, c1, r0, r1 = box
        return (c1 - c0 + 1) * (r1 - r0 + 1)


class MotionGraph:
    """Tree of poses with per-vertex parent, edge cost, and cost-to-come.

    Vertex indices are stable; pruned vertices keep their slot and their
    pose with alive=False. The alive mask is the one liveness rule: every
    query and dump reads it, including the queries served by the CellIndex,
    which files every slot. Vertex 0 is the start pose. An optional
    CellIndex serves the nearest and neighbourhood queries once the tree has
    more alive vertices than the index has cells; either way the queries
    return exactly what a scan of the tree returns. Nearest queries come in
    blocks and keep no state: the caller holds the answers. The lists hold
    one entry per slot, so len(graph) counts slots, alive or not.
    """

    def __init__(self, start: Pose, cells: CellIndex | None = None):
        self.poses: list[Pose] = []
        self.parent: list[int | None] = []
        self.edge_cost: list[float] = []
        self.children: list[list[int]] = []
        self.goal_index: int | None = None
        self.iteration_costs: list[float] = []
        self.iteration_vertices: list[int] = []
        # samples the informed tests turned away: those whose cost floor
        # from the start plus the heuristic to the goal exceeds the goal
        # cost, safe to their nearest vertex or not, and safe ones whose cost
        # through the best parent plus the heuristic exceeds it; duplicate,
        # degenerate, unsafe and zero-edge samples are not counted
        self.rejected: int = 0
        self._xs, self._ys, self._cos, self._sin, self._ctc = np.zeros((5, 256))
        self._alive = np.zeros(256, dtype=bool)
        self._index: dict[tuple[float, float, float], int] = {}
        self._cells = cells
        self._alive_count = 0
        self._append(start, None, 0.0, 0.0)

    # -- storage ---------------------------------------------------------

    def _append(self, pose: Pose, parent: int | None, cost: float, ctc: float) -> int:
        """Push a vertex onto the lists, the columns and the cell index; the
        caller links it into its parent's children."""
        i = len(self.poses)
        if i == len(self._alive):
            for name in ("_xs", "_ys", "_cos", "_sin", "_ctc", "_alive"):
                arr = getattr(self, name)
                setattr(self, name, np.concatenate((arr, np.zeros_like(arr))))
        self.poses.append(pose)
        self.parent.append(parent)
        self.edge_cost.append(cost)
        self.children.append([])
        self._xs[i] = pose.x
        self._ys[i] = pose.y
        self._cos[i] = math.cos(pose.theta)
        self._sin[i] = math.sin(pose.theta)
        self._ctc[i] = ctc
        self._alive[i] = True
        self._index[(pose.x, pose.y, pose.theta)] = i
        if self._cells is not None:
            self._cells.add(i, pose.x, pose.y)
        self._alive_count += 1
        return i

    def __len__(self):
        return len(self.poses)

    @property
    def alive_count(self) -> int:
        return self._alive_count

    def alive_indices(self) -> np.ndarray:
        return np.flatnonzero(self._alive[: len(self)])

    def is_alive(self, i: int) -> bool:
        return bool(self._alive[i])

    def cost_to_come(self, i: int) -> float:
        return float(self._ctc[i])

    def contains_pose(self, pose: Pose) -> bool:
        i = self._index.get((pose.x, pose.y, pose.theta))
        return i is not None and bool(self._alive[i])

    def edges(self):
        """Tree edges as (parent, child, cost), in child-index order."""
        for i in range(1, len(self)):
            if self._alive[i]:
                yield self.parent[i], i, self.edge_cost[i]

    # -- construction ----------------------------------------------------

    def add_vertex(self, pose: Pose, parent: int, cost: float) -> int:
        if cost <= 0.0:
            raise PlanningError("edge cost must be strictly positive")
        i = self._append(pose, parent, cost, self._ctc[parent] + cost)
        self.children[parent].append(i)
        return i

    def rewire(self, v: int, new_parent: int, cost: float) -> None:
        """Re-parent v through new_parent and shift its subtree's cost-to-come."""
        old_parent = self.parent[v]
        self.children[old_parent].remove(v)
        self.parent[v] = new_parent
        self.children[new_parent].append(v)
        self.edge_cost[v] = cost
        delta = self._ctc[new_parent] + cost - self._ctc[v]
        stack = [v]
        while stack:
            u = stack.pop()
            self._ctc[u] += delta
            stack.extend(self.children[u])

    def kill_subtree(self, v: int) -> None:
        """Mark v and all its descendants dead and detach v from its parent."""
        self.children[self.parent[v]].remove(v)
        stack = [v]
        while stack:
            u = stack.pop()
            if self._alive[u]:
                self._alive[u] = False
                self._alive_count -= 1
            stack.extend(self.children[u])
            self.children[u] = []

    # -- queries ---------------------------------------------------------

    def _indexed(self) -> bool:
        """Whether the cell index serves queries: with no more alive
        vertices than cells, a scan is cheaper than walking the cells."""
        return self._cells is not None and self._alive_count > self._cells.count

    def _score(self, p: Pose | PoseColumns, wd: WeightedDistance, idx) -> np.ndarray:
        return wd.value_arr(p, self._xs[idx], self._ys[idx], self._cos[idx], self._sin[idx])

    def nearest_index(self, draws, wd: WeightedDistance) -> list[int]:
        """For each (x, y, theta) draw, the alive vertex of least
        wd.value_arr from it, lowest index on ties.

        Every answer is the one a lone query gives. The scan scores every
        slot for every draw in one value_arr call on the (draws, slots)
        grid, and each row has the bits of a lone query (see PoseColumns);
        it serves alpha = 0 and a tree with no more alive vertices than
        cells. The indexed path answers one draw at a time, as a
        PoseColumns of plain floats: it scores the 3x3 cells around the
        draw for an incumbent, then every further cell within
        incumbent / alpha of it. Each objective's value is at least
        alpha * |p - q| (the cost floor of heuristic), so no vertex farther
        away ties or beats it. A draw with no alive vertex in its 3x3
        cells, or whose reach spans the grid, is scanned alone.
        """
        if not (self._indexed() and wd.alpha > 0.0):
            return self._scan(PoseColumns.of(draws), wd)
        return [self._nearest_in_cells(PoseColumns(x, y, math.cos(theta), math.sin(theta)), wd)
                for x, y, theta in draws]

    def _scan(self, queries: PoseColumns, wd: WeightedDistance):
        """argmin per query over the alive slots: a list for columns, an
        int for one query of plain floats."""
        n = len(self)
        values = np.where(self._alive[:n], self._score(queries, wd, slice(0, n)), np.inf)
        return np.argmin(values, axis=-1).tolist()

    def _nearest_in_cells(self, query: PoseColumns, wd: WeightedDistance) -> int:
        cells, alive = self._cells, self._alive
        x, y = query.x, query.y
        col, row = cells.cell(x, y)
        block = (col - 1, col + 1, row - 1, row + 1)
        cand = cells.gather(block)
        cand = cand[alive[cand]]
        if cand.size:
            values = self._score(query, wd, cand)
            # padded for rounding: cost_floor(wd, reach) is the incumbent
            # value, so no vertex beyond it can tie
            reach = (max(float(values.min()), 0.0) * (1.0 + _PAD)
                     + _PAD * wd.beta) / wd.alpha
            box = cells.box(x, y, reach)
            if math.isfinite(reach) and cells.cell_count(box) < cells.count:
                extra = cells.gather(box, skip=block)
                extra = extra[alive[extra]]
                if extra.size:
                    cand = np.concatenate((cand, extra))
                    values = np.concatenate((values, self._score(query, wd, extra)))
                return int(cand[values == values.min()].min())
        return self._scan(query, wd)

    def neighbor_indices(self, p: Pose, radius: float, angle: float) -> np.ndarray:
        """Decoupled Euclidean/cosine neighborhood of p, ascending indices."""
        if self._indexed() and math.isfinite(radius):
            # gathering and sorting costs about what the test does per
            # vertex, so the cells pay off only on at most half the grid
            box = self._cells.box(p.x, p.y, radius)
            if 2 * self._cells.cell_count(box) <= self._cells.count:
                idx = self._cells.gather(box)
                idx.sort()
                return idx[self._within(p, radius, angle, idx) & self._alive[idx]]
        n = len(self)
        return np.flatnonzero(self._within(p, radius, angle, slice(0, n)) & self._alive[:n])

    def _within(self, p: Pose, radius: float, angle: float, idx) -> np.ndarray:
        trans = np.hypot(self._xs[idx] - p.x, self._ys[idx] - p.y)
        orient = 1.0 - (math.cos(p.theta) * self._cos[idx] + math.sin(p.theta) * self._sin[idx])
        return (trans <= radius) & (orient <= angle)

    def path_indices(self, v: int) -> list[int]:
        """Vertex indices from the start to v along parent pointers."""
        path = [v]
        while self.parent[path[-1]] is not None:
            path.append(self.parent[path[-1]])
        return path[::-1]

    def costs_to(self, v: int) -> np.ndarray:
        """Travel cost from every vertex to the alive vertex v, summed edge by
        edge from v along the one tree path; inf for dead vertices, which no
        alive vertex lists as a child, so the walk never reaches them."""
        costs = np.full(len(self), np.inf)
        costs[v] = 0.0
        stack = [v]
        while stack:
            u = stack.pop()
            p = self.parent[u]
            if p is not None and costs[p] == np.inf:
                costs[p] = costs[u] + self.edge_cost[u]
                stack.append(p)
            for w in self.children[u]:
                if costs[w] == np.inf:
                    costs[w] = costs[u] + self.edge_cost[w]
                    stack.append(w)
        return costs

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        """Dump alive vertices and tree edges with compact re-indexing."""
        alive = self.alive_indices()
        remap = {int(old): new for new, old in enumerate(alive)}
        vertices = [
            {
                "x": self.poses[i].x,
                "y": self.poses[i].y,
                "theta": self.poses[i].theta,
                "cost": float(self._ctc[i]),
            }
            for i in alive
        ]
        edges = [
            {"a": remap[a], "b": remap[b], "cost": c}
            for a, b, c in self.edges()
        ]
        best_path = []
        goal = None
        if self.goal_index is not None:
            goal = remap[self.goal_index]
            best_path = [remap[i] for i in self.path_indices(self.goal_index)]
        return {
            "vertices": vertices,
            "edges": edges,
            "best_path": best_path,
            "goal_index": goal,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "MotionGraph":
        """Rebuild a tree from a dump, preserving dump vertex indices.

        Vertex 0 must be the start; parents are recovered by search from it.
        Raises PlanningError for a malformed dump: a missing key, no
        vertices, an edge endpoint or goal_index that is not a JSON integer
        or is out of range, a coordinate or cost that is not a JSON number
        or is NaN or infinite, a vertex set that is not one tree, or costs
        that do not telescope along it.
        """
        try:
            vertices = [(v["x"], v["y"], v["theta"], v["cost"]) for v in doc["vertices"]]
            edges = [(e["a"], e["b"], e["cost"]) for e in doc["edges"]]
            goal_index = doc.get("goal_index")
        except KeyError as e:
            raise PlanningError(f"graph dump is missing key {e}") from e
        except TypeError as e:
            raise PlanningError(f"graph dump is malformed: {e}") from e
        if not vertices:
            raise PlanningError("graph dump has no vertices")
        ends = [end for a, b, _ in edges for end in (a, b)]
        if not json_numbers(ends + [goal_index] * (goal_index is not None), integer=True):
            raise PlanningError("graph dump has a non-integer edge endpoint or goal_index")
        if not json_numbers([value for v in vertices for value in v] + [c for _, _, c in edges]):
            raise PlanningError("graph dump has a non-numeric or non-finite coordinate or cost")
        vertices = [tuple(map(float, v)) for v in vertices]
        n = len(vertices)
        if goal_index is not None and not 0 <= goal_index < n:
            raise PlanningError("graph dump has goal_index out of range")
        adjacency: dict[int, list[tuple[int, float]]] = {i: [] for i in range(n)}
        for a, b, c in edges:
            if not (0 <= a < n and 0 <= b < n):
                raise PlanningError("graph dump has an edge endpoint out of range")
            adjacency[a].append((b, float(c)))
            adjacency[b].append((a, float(c)))
        parent: list[int | None] = [None] * n
        edge_cost = [0.0] * n
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for w, c in adjacency[u]:
                if w not in seen:
                    seen.add(w)
                    parent[w] = u
                    edge_cost[w] = c
                    stack.append(w)
        # n - 1 edges that connect all n vertices are one tree: no cycle,
        # duplicate edge or self-loop
        if len(seen) != n or len(edges) != n - 1:
            raise PlanningError("graph dump is not one tree")

        graph = cls(Pose(*vertices[0][:3]))
        for i in range(1, n):
            graph._append(Pose(*vertices[i][:3]), parent[i], edge_cost[i], vertices[i][3])
        for i in range(1, n):
            graph.children[parent[i]].append(i)
        for i in range(1, n):  # dumped costs must telescope along the tree
            expect = graph._ctc[parent[i]] + edge_cost[i]
            if abs(graph._ctc[i] - expect) > 1e-6 * max(1.0, abs(expect)):
                raise PlanningError("graph dump has inconsistent costs")
        graph.goal_index = goal_index
        return graph


def build_tree(problem: Problem) -> MotionGraph:
    """Run the sampling loop for the configured number of iterations.

    Returns the final graph; a graph holding only the start vertex is a
    valid outcome. Per-iteration best goal cost and alive vertex counts are
    recorded on the graph for diagnostics. Each iteration grows the tree
    toward one draw from its nearest vertex (see extend).

    Each pass draws a block of (x, y, theta) coordinates. Without a goal
    vertex it is one goal-biased sample_free_pose draw (the draw that adds
    the goal vertex ends the biased stream). After that the sampler does
    not depend on the tree, and a block holds sample_uniform_pose draws: in
    informed mode _LOOKAHEAD // len(graph) (at least one, at most the
    iterations left), otherwise one, since without informed rejection
    nearly every draw adds a vertex and a block's later answers would be
    asked again. One nearest_index call answers the block; after an
    iteration that adds a vertex (prune kills only after an add), one call
    answers the rest of the block. The draws are the ones the loop would
    make one at a time, in the same order, and each answer is the one a
    lone query gives.

    In informed mode, one array test per call (floor_rejects) finds the
    draws whose projected position fails the informed floor test of extend
    by more than rounding. Those count in graph.rejected and get no Pose,
    projection or extend; a block of one draw skips the array test. The
    tree is the one extend alone gives, draw by draw:
    - prune runs after every tree change, so an alive vertex v has
      cost_floor(|v - start|) + h(v) <= ctc(v) + h(v) <= bound + _PRUNE_SLACK,
      and the goal position's floor is at most the bound (cost_floor is a
      lower bound on every cost-to-come);
    - floor_rejects takes only values above bound + _PRUNE_SLACK plus a
      margin, so a draw it rejects never projects onto an alive vertex or
      the goal position: it is no duplicate or degenerate-goal sample,
      which extend skips without counting;
    - np.hypot differs from math.hypot, and the array projection from
      project, by a few ulps, far inside the _ROUNDING margin, so each draw
      floor_rejects takes fails extend's floor test as well.
    """
    world, pp = problem.world, problem.planner
    wd = objective_distance(pp.objective, pp.alpha, pp.beta, pp.kappa)
    informed = pp.informed != "off"
    rng = UniformDraws(np.random.default_rng(pp.seed))
    start, goal = problem.start, problem.goal

    # cells of half the neighbourhood radius: a neighbourhood query reads
    # about 5x5 of them, and the nearest query first scores the 3x3 around
    # its sample, which in a dense tree already holds the nearest vertex
    cells = None
    if pp.neighbor_radius > 0.0:
        cells = CellIndex(world.x_min, world.y_min, world.x_max, world.y_max,
                          pp.neighbor_radius / 2)
    graph = MotionGraph(start, cells)
    if start == goal:
        graph.goal_index = 0

    def record(iterations: int) -> None:
        gi = graph.goal_index
        graph.iteration_costs += [math.inf if gi is None else graph.cost_to_come(gi)] * iterations
        graph.iteration_vertices += [graph.alive_count] * iterations

    def reject(iterations: int) -> None:  # draws floor_rejects took
        graph.rejected += iterations
        record(iterations)

    left = pp.samples
    while left:
        if graph.goal_index is None:
            drawn = [sample_free_pose(world, rng, goal, pp.goal_bias)]
        else:
            block = min(max(1, _LOOKAHEAD // len(graph)), left) if informed else 1
            drawn = [sample_uniform_pose(world, rng) for _ in range(block)]
        left -= len(drawn)
        while drawn:
            nearest = graph.nearest_index(drawn, wd)
            kept = range(len(drawn))
            if len(drawn) > 1:
                rejects = floor_rejects(graph, drawn, nearest, problem, wd)
                kept = np.flatnonzero(~rejects).tolist()
            size, done = len(graph), 0
            for j in kept:
                reject(j - done)
                extend(graph, problem, wd, Pose(*drawn[j]), nearest[j])
                record(1)
                done = j + 1
                if len(graph) != size:
                    break
            else:
                reject(len(drawn) - done)
                done = len(drawn)
            del drawn[:done]
    return graph


def floor_rejects(graph: MotionGraph, draws, nearest: list[int], problem: Problem,
                  wd: WeightedDistance) -> np.ndarray:
    """Mask of the (x, y, theta) draws that extend would reject on the informed floor
    test, by more than rounding, given their nearest vertices.

    For a tree with a goal vertex, in informed mode. The array form of
    project's position, then cost_floor from the start plus heuristic_arr
    to the goal, against bound + _PRUNE_SLACK widened by _ROUNDING relative
    to the bound and to alpha times the workspace's coordinate extent,
    which bounds the ulps of every position (see build_tree).
    """
    pp, w, start, goal = problem.planner, problem.world, problem.start, problem.goal
    qx, qy, _ = np.array(draws).T
    bx, by = graph._xs[nearest], graph._ys[nearest]
    dx, dy = qx - bx, qy - by
    dist = np.hypot(dx, dy)
    far = dist > pp.step_radius
    scale = pp.step_radius / np.where(far, dist, pp.step_radius)
    px = np.where(far, bx + scale * dx, qx)
    py = np.where(far, by + scale * dy, qy)
    value = (cost_floor(wd, np.hypot(px - start.x, py - start.y))
             + heuristic_arr(px, py, goal, wd, pp.informed))
    bound = graph.cost_to_come(graph.goal_index)
    extent = max(abs(w.x_min), abs(w.x_max)) + max(abs(w.y_min), abs(w.y_max))
    return value > bound + _PRUNE_SLACK + _ROUNDING * (abs(bound) + wd.alpha * extent)


def extend(graph: MotionGraph, problem: Problem, wd: WeightedDistance, p_rand: Pose,
           b: int) -> None:
    """Grow the tree toward p_rand from its nearest alive vertex b; return
    early when the sample is skipped.

    The sample is projected into the step neighbourhood of b. In informed
    mode, once a goal cost is known, it is rejected when its cost through
    the chosen parent plus the heuristic to the goal exceeds that cost. The
    test first runs on the cost floor from the start (see heuristic), right
    after the duplicate and degenerate-goal checks and before the issafe
    gate and the neighbourhood query: any parent's cost-to-come plus edge
    is at least cost_floor of the distance from the start, and rounding of
    a sum is monotone, so a sample that fails there fails the exact test
    too. The floor test reads only the sample, the start, the goal and the
    goal cost, and issafe draws nothing and changes no tree, so the tree is
    what the exact test alone gives. Both tests count in graph.rejected; the
    floor test also counts samples that are unsafe to their nearest vertex,
    which the gate would have skipped.
    """
    world, pp, cp = problem.world, problem.planner, problem.control
    start, goal = problem.start, problem.goal
    informed = pp.informed != "off"
    p_best = graph.poses[b]
    p_new = project(p_best, p_rand, pp.step_radius, pp.step_angle)

    # projection snaps positions exactly; a non-goal vertex sitting at
    # the goal position would win every later nearest(goal) query while
    # never being safely connectable to the goal (degenerate pair), so
    # it would deadlock goal connection: skip it
    degenerate_goal = (
        p_new != goal and p_new.x == goal.x and p_new.y == goal.y
    )
    if degenerate_goal or graph.contains_pose(p_new):
        return

    h, bound = 0.0, math.inf  # informed test: reject when cost + h > bound
    if informed and graph.goal_index is not None:
        h = heuristic(p_new, goal, wd, pp.informed)
        bound = graph.cost_to_come(graph.goal_index)
        floor = cost_floor(wd, math.hypot(p_new.x - start.x, p_new.y - start.y))
        if floor + h > bound:
            graph.rejected += 1
            return

    if not issafe(p_best, p_new, world, cp):
        return

    near = graph.neighbor_indices(p_new, pp.neighbor_radius, pp.neighbor_angle)
    # score the neighbourhood and the nearest vertex b together
    scored = np.append(near, b)
    if pp.objective == "uniform":
        costs = np.ones(len(scored))
    else:
        costs = graph._score(p_new, wd, scored)
    edge_costs, best_edge = costs[:-1], float(costs[-1])
    p_min, mincost = b, graph.cost_to_come(b) + best_edge
    edge_min = best_edge
    # scanning neighbors in (cost, index) order gives the same argmin as
    # the in-order scan, with safety checked only until the first hit
    tempcost = graph._ctc[near] + edge_costs
    for j in np.argsort(tempcost, kind="stable"):
        if tempcost[j] >= mincost:
            break
        cand = int(near[j])
        if issafe(graph.poses[cand], p_new, world, cp):
            p_min, mincost, edge_min = cand, float(tempcost[j]), float(edge_costs[j])
            break

    if mincost + h > bound:
        graph.rejected += 1
        return

    if edge_min <= 0.0:  # degenerate sample coincident with its parent
        return
    v = graph.add_vertex(p_new, p_min, edge_min)
    if p_new == goal:
        graph.goal_index = v

    rewire_through(graph, v, near, edge_costs, p_min, world, cp)

    if informed and graph.goal_index is not None:
        prune(graph, goal, wd, pp.informed)


def rewire_through(graph: MotionGraph, v: int, near: np.ndarray, edge_costs: np.ndarray,
                   skip: int, world, cp) -> None:
    """Re-parent each neighbour in near (ascending) under v when that is
    strictly cheaper and safe; skip is v's parent.

    The array filter drops only candidates the scalar loop would drop as
    well: inside this loop cost-to-come only falls (a rewire lowers a whole
    subtree) and nothing dies, so a candidate that fails against the costs
    before the loop fails at its turn too. An earlier rewire can lower a
    later candidate's cost below its threshold, so each one left is checked
    again before issafe runs.
    """
    ctc_new = graph.cost_to_come(v)
    passing = (edge_costs > 0.0) & (near != skip) & (ctc_new + edge_costs < graph._ctc[near])
    p_new = graph.poses[v]
    for j in np.flatnonzero(passing):
        cand, c = int(near[j]), float(edge_costs[j])
        if ctc_new + c < graph.cost_to_come(cand) and issafe(
            p_new, graph.poses[cand], world, cp
        ):
            graph.rewire(cand, v, c)


def prune(graph: MotionGraph, goal: Pose, wd: WeightedDistance, mode: str) -> None:
    """Remove vertices that no optimal path can pass through.

    A vertex fails when its cost-to-come plus the admissible heuristic to
    the goal exceeds the incumbent goal cost; failing vertices fall with
    their whole subtrees. Never removes the start, the goal, or any vertex
    on the current best path (asserted), so a set goal_index stays alive.
    """
    gi = graph.goal_index
    if gi is None:
        return
    bound = graph.cost_to_come(gi) + _PRUNE_SLACK
    n = len(graph)
    h = heuristic_arr(graph._xs[:n], graph._ys[:n], goal, wd, mode)
    failing = (graph._ctc[:n] + h > bound) & graph._alive[:n]
    if not failing.any():
        return
    # the admissible heuristic cannot flag the start, the goal, or any
    # best-path vertex; a hit here means the bound arithmetic is broken
    assert not failing[graph.path_indices(gi)].any(), \
        "informed pruning flagged a best-path vertex"
    for v in np.flatnonzero(failing).tolist():
        if graph.is_alive(v):  # not killed with an earlier vertex's subtree
            graph.kill_subtree(v)
