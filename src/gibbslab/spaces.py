"""Compact base spaces with quadrature grids, spectral bases, and Green kernels.

Supported kinds: unit circle (arc-length coordinate, circumference 2*pi),
flat unit torus [0,1)^2, unit sphere in R^3, and Euclidean boxes in
dimension <= 2.  Manifold spaces carry a Laplace-Beltrami eigenbasis that is
orthonormal for the normalized reference measure; boxes carry only a grid
and a reference density.

The spectral Green kernel for a background charge ``L`` (a signed density of
total mass 1 against the reference measure) is

    G(x, y) = H(x, y) - phi(x) - phi(y) + c,

where ``H`` is the zero-mean Green kernel of the reference measure,
``phi(x) = integral of H(x, .) against L`` and the constant ``c`` is chosen
so that ``integral of G(x, .) against L`` vanishes for every ``x``.
"""

import functools
import math

import numpy as np

from .errors import SpaceError
from .expressions import compile_point_function

__all__ = [
    "Space",
    "BackgroundCharge",
    "GreenModel",
    "GreenOperator",
    "build_space",
    "green_identity_residual",
]

_MIN_NODES = 8


class Space:
    """Quadrature grid plus (for manifolds) a spectral basis.

    Attributes
    ----------
    kind : str
        One of ``circle``, ``torus``, ``sphere``, ``box``.
    dim : int
        Intrinsic dimension.
    nodes : ndarray, shape (n_nodes, point_dim)
        Grid node coordinates (angle for the circle, [0,1)^2 for the torus,
        unit vectors for the sphere, Cartesian coordinates for boxes).
    weights : ndarray, shape (n_nodes,)
        Quadrature weights for the normalized reference measure; sum to 1.
    cell_volumes : ndarray, shape (n_nodes,)
        Physical (unnormalized) volume of each node cell.
    eigenvalues : ndarray or None
        Nondecreasing Laplace-Beltrami eigenvalues, first entry 0.
    basis_values : ndarray or None, shape (n_nodes, n_basis)
        Basis functions tabulated at the nodes; column 0 is the constant 1.
    mode_index : ndarray or None, shape (n_modes, 2)
        Torus frequency pairs (m1, m2) as floats, one per cos/sin column pair.
        Its two columns are also kept as contiguous rows for the basis.
    """

    def __init__(self, kind, dim, nodes, weights, cell_volumes, params,
                 eigenvalues=None, basis_values=None, mode_index=None,
                 density_values=None):
        self.kind = kind
        self.dim = dim
        self.nodes = np.asarray(nodes, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        self.cell_volumes = np.asarray(cell_volumes, dtype=float)
        self.params = dict(params)
        self.eigenvalues = None if eigenvalues is None else np.asarray(eigenvalues, float)
        self.basis_values = None if basis_values is None else np.asarray(basis_values, float)
        self.mode_index = None if mode_index is None else np.asarray(mode_index, float)
        self._mode_rows = None if mode_index is None else self.mode_index.T.copy()
        self.density_values = None if density_values is None else np.asarray(density_values, float)

    # -- basic geometry ----------------------------------------------------

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def point_dim(self):
        return self.nodes.shape[1]

    @property
    def has_basis(self):
        return self.basis_values is not None

    @property
    def n_basis(self):
        return 0 if self.basis_values is None else self.basis_values.shape[1]

    @property
    def basis_order(self):
        return self.params.get("basis_order")

    @property
    def volume(self):
        return {"circle": 2.0 * np.pi, "torus": 1.0, "sphere": 4.0 * np.pi}.get(
            self.kind, float(np.prod([b - a for a, b in self.params.get("bounds", [])]))
        )

    @property
    def diameter(self):
        if self.kind == "circle":
            return np.pi
        if self.kind == "torus":
            return math.sqrt(0.5)
        if self.kind == "sphere":
            return np.pi
        spans = np.array([b - a for a, b in self.params["bounds"]], float)
        return float(np.linalg.norm(spans))

    def _as_points(self, x):
        pts = np.asarray(x, dtype=float)
        if pts.ndim == 1 and pts.shape[0] == self.point_dim:
            pts = pts[None, :]
        if pts.ndim != 2 or pts.shape[1] != self.point_dim:
            raise SpaceError(
                f"expected points of dimension {self.point_dim}, got shape {pts.shape}"
            )
        return pts

    def distance(self, a, b, chord=False):
        """Elementwise geodesic distance, or with ``chord`` the embedding
        distance, between broadcastable point arrays whose last axis holds
        the coordinates; the two agree on the torus and in boxes.  ``fmod``
        equals ``%`` on the non-negative |a - b| and is faster."""
        if self.kind == "circle":
            d = np.fmod(np.abs(a[..., 0] - b[..., 0]), 2.0 * np.pi)
            d = np.minimum(d, 2.0 * np.pi - d)
            return 2.0 * np.sin(0.5 * d) if chord else d
        if self.kind == "torus":
            d = np.fmod(np.abs(a - b), 1.0)
            d = np.minimum(d, 1.0 - d)
            return np.sqrt((d ** 2).sum(axis=-1))
        if self.kind == "sphere" and not chord:
            return np.arccos(np.clip((a * b).sum(axis=-1), -1.0, 1.0))
        return np.sqrt(((a - b) ** 2).sum(axis=-1))

    def geodesic(self, x, y):
        """Pairwise geodesic distance matrix between point arrays."""
        return self.distance(self._as_points(x)[:, None], self._as_points(y)[None])

    def chord(self, x, y):
        """Pairwise embedding (chord) distance; equals geodesic on the torus."""
        return self.distance(self._as_points(x)[:, None], self._as_points(y)[None],
                             chord=True)

    # -- spectral basis ----------------------------------------------------

    def evaluate_basis(self, points):
        """Tabulate all basis functions at arbitrary points, shape (p, n_basis)."""
        if not self.has_basis:
            raise SpaceError(f"space kind {self.kind!r} carries no spectral basis")
        pts = self._as_points(points)
        if self.kind == "circle":
            return _circle_basis(pts[:, 0], self.params["basis_order"])
        if self.kind == "torus":
            return _torus_basis(pts, self._mode_rows)
        return _sphere_basis(pts, self.params["basis_order"])

    def reference_density(self, points):
        """Reference density against the box coordinate measure (boxes only)."""
        if self.kind != "box":
            return np.ones(self._as_points(points).shape[0])
        pts = self._as_points(points)
        fn = self.params.get("_density_fn")
        if fn is None:
            return np.full(pts.shape[0], self.params["_density_norm"])
        return fn(pts) * self.params["_density_norm"]

    def contains(self, points):
        """Boolean mask for points inside the space's chart (boxes only)."""
        pts = self._as_points(points)
        if self.kind != "box":
            return np.ones(pts.shape[0], dtype=bool)
        bounds = np.asarray(self.params["bounds"], float)
        ok = (pts >= bounds[:, 0]) & (pts <= bounds[:, 1])
        return ok.all(axis=1)

    def sample_points(self, rng, count):
        """Draw ``count`` points from the reference measure."""
        if self.kind == "circle":
            return rng.uniform(0.0, 2.0 * np.pi, size=(count, 1))
        if self.kind == "torus":
            return rng.uniform(0.0, 1.0, size=(count, 2))
        if self.kind == "sphere":
            v = rng.normal(size=(count, 3))
            return v / np.linalg.norm(v, axis=1, keepdims=True)
        idx = rng.choice(self.n_nodes, size=count, p=self.weights)
        bounds = np.asarray(self.params["bounds"], float)
        res = self.params["resolution"]
        step = (bounds[:, 1] - bounds[:, 0]) / res
        jitter = rng.uniform(-0.5, 0.5, size=(count, self.dim)) * step
        return self.nodes[idx] + jitter


# -- per-kind construction ---------------------------------------------------


def _circle_basis(theta, order):
    cols = [np.ones_like(theta)]
    for m in range(1, order + 1):
        cols.append(np.sqrt(2.0) * np.cos(m * theta))
        cols.append(np.sqrt(2.0) * np.sin(m * theta))
    return np.stack(cols, axis=1)


def _build_circle(resolution, basis_order):
    theta = 2.0 * np.pi * np.arange(resolution) / resolution
    nodes = theta[:, None]
    weights = np.full(resolution, 1.0 / resolution)
    cells = np.full(resolution, 2.0 * np.pi / resolution)
    eigs = [0.0]
    for m in range(1, basis_order + 1):
        eigs += [float(m * m)] * 2
    basis = _circle_basis(theta, basis_order)
    return Space("circle", 1, nodes, weights, cells,
                 {"resolution": resolution, "basis_order": basis_order},
                 eigenvalues=eigs, basis_values=basis)


def _torus_modes(order):
    """Canonical half of the nonzero frequency lattice, sorted by eigenvalue."""
    modes = []
    for m1 in range(0, order + 1):
        for m2 in range(-order, order + 1):
            if m1 == 0 and m2 <= 0:
                continue
            modes.append((m1, m2))
    modes.sort(key=lambda m: (m[0] ** 2 + m[1] ** 2, m))
    return modes


def _torus_basis(points, mode_rows):
    """Basis table at arbitrary points (the grid nodes take ``_torus_node_table``);
    ``mode_rows`` is the (2, M) float array of the m1 and m2 of every mode, each
    row contiguous (a column of ``Space.mode_index`` is strided, slower to read).

    The phase is an elementwise multiply-add, not ``points @ mode_rows``: a
    matrix product would round differently from the per-mode formula
    ``2*pi*(m1*u + m2*v)``, and the torus outputs are kept bit-stable.
    """
    m1, m2 = mode_rows
    phase = 2.0 * np.pi * (points[:, :1] * m1 + points[:, 1:] * m2)
    out = np.empty((points.shape[0], 2 * m1.shape[0] + 1))
    out[:, 0] = 1.0
    out[:, 1::2] = np.sqrt(2.0) * np.cos(phase)
    out[:, 2::2] = np.sqrt(2.0) * np.sin(phase)
    return out


def _torus_node_table(resolution, modes):
    """Basis table at the R x R grid nodes (a/R, b/R) for the integer (M, 2) modes.
    Mode (m1, m2) has phase 2*pi*(k/R) there, k = a*m1 + b*m2, so the rows are
    gathered, one a at a time, from one (K, 2) table of sqrt(2) cos and sin over
    the k range.  At R a power of two, a/R and u*m1 + v*m2 are exact, so this is
    ``_torus_basis`` at the nodes bit for bit; otherwise k/R is the correctly
    rounded fraction, and the entries move by round-off (under 5e-14)."""
    m1, m2 = modes.T
    low = (resolution - 1) * int(np.minimum(modes, 0).sum(axis=1).min())
    high = (resolution - 1) * int(np.maximum(modes, 0).sum(axis=1).max())
    phase = 2.0 * np.pi * (np.arange(low, high + 1) / resolution)
    table = np.sqrt(2.0) * np.column_stack([np.cos(phase), np.sin(phase)])
    offsets = np.arange(resolution)[:, None] * m2 - low
    out = np.empty((resolution, resolution, 2 * modes.shape[0] + 1))
    out[..., 0] = 1.0
    for a in range(resolution):
        out[a, :, 1:] = np.take(table, offsets + a * m1, axis=0).reshape(resolution, -1)
    return out.reshape(resolution * resolution, -1)


def _build_torus(resolution, basis_order):
    side = np.arange(resolution) / resolution
    uu, vv = np.meshgrid(side, side, indexing="ij")
    nodes = np.column_stack([uu.ravel(), vv.ravel()])
    n = nodes.shape[0]
    weights = np.full(n, 1.0 / n)
    cells = np.full(n, 1.0 / n)
    modes = np.array(_torus_modes(basis_order))
    lam = 4.0 * np.pi ** 2 * (modes ** 2).sum(axis=1)
    eigs = np.concatenate([[0.0], np.repeat(lam, 2)])
    basis = _torus_node_table(resolution, modes)
    return Space("torus", 2, nodes, weights, cells,
                 {"resolution": resolution, "basis_order": basis_order},
                 eigenvalues=eigs, basis_values=basis, mode_index=modes)


def _sphere_norm(l, m):
    """Normalization making the real harmonics orthonormal for dA/(4*pi)."""
    ratio = 1.0
    for k in range(l - m + 1, l + m + 1):
        ratio *= k
    return math.sqrt((2 * l + 1) / ratio)


@functools.lru_cache(maxsize=8)
def _sphere_degree_tables(order):
    """Per degree l, as read-only float columns over the orders m: the
    factors of m = 0..l (the norm, times sqrt(2) for m > 0), and the
    recurrence's l + m - 1 and l - m for m = 0..l-2."""
    tables = []
    for l in range(order + 1):
        norms = [_sphere_norm(l, 0)] + [math.sqrt(2.0) * _sphere_norm(l, m)
                                        for m in range(1, l + 1)]
        m = np.arange(max(l - 1, 0), dtype=float)[:, None]
        tables.append((np.array(norms)[:, None], l + m - 1.0, l - m))
        for column in tables[-1]:
            column.flags.writeable = False
    return tables


def _sphere_basis(points, order):
    """Real spherical harmonics up to degree ``order``; column l*l + l + m
    holds degree l, order m (cosine for m > 0, sine of |m| for m < 0).

    The associated Legendre functions P_l^m(cos theta) come from the
    P_m^m -> P_{m+1}^m -> P_l^m recurrence, with the Condon-Shortley sign of
    ``scipy.special.lpmv``.  The loop runs over the degree l and takes the
    orders m = 0..l as rows of (order + 1, points) work arrays.  Every entry
    takes the operations of the per-(l, m) recurrence in the same order, and
    cos(m phi) and sin(m phi) are numpy's of the same products m * phi, so
    the table equals the one built column by column bit for bit.
    """
    ct = np.clip(points[:, 2], -1.0, 1.0)
    phi = np.arctan2(points[:, 1], points[:, 0])
    sine = np.sqrt((1.0 - ct) * (1.0 + ct))
    out = np.empty((points.shape[0], (order + 1) ** 2))
    m_phi = np.arange(order + 1, dtype=float)[:, None] * phi
    cos_m, sin_m = np.cos(m_phi), np.sin(m_phi)
    # P_{l-2}, P_{l-1} and P_l in rotation, and two scratch arrays: written in
    # place, so a large table allocates no temporary per degree
    prev, leg, nxt, scaled, product = np.empty((5, order + 1, points.shape[0]))
    for l, (norms, upper, lower) in enumerate(_sphere_degree_tables(order)):
        if l == 0:
            nxt[0] = 1.0
        else:
            # (2l - 1) ct is the factor of m = l - 1 and of every m < l - 1
            factor = (2 * l - 1) * ct
            if l > 1:
                head = nxt[: l - 1]
                np.multiply(factor, leg[: l - 1], out=head)
                np.multiply(upper, prev[: l - 1], out=product[: l - 1])
                np.subtract(head, product[: l - 1], out=head)
                np.divide(head, lower, out=head)
            np.multiply(factor, leg[l - 1], out=nxt[l - 1])
            # P_l^l from P_{l-1}^{l-1}
            np.multiply(-(2 * l - 1) * sine, leg[l - 1], out=nxt[l])
        prev, leg, nxt = leg, nxt, prev
        np.multiply(norms, leg[: l + 1], out=scaled[: l + 1])
        # cos(0 * phi) = 1 exactly, so column l*l + l is norm * P_l^0.  The
        # products are formed in the (m, points) layout and copied over: a
        # ufunc writing straight into the strided columns is slower.
        np.multiply(scaled[: l + 1], cos_m[: l + 1], out=product[: l + 1])
        out[:, l * l + l : (l + 1) ** 2] = product[: l + 1].T
        if l > 0:
            np.multiply(scaled[1 : l + 1], sin_m[1 : l + 1], out=product[:l])
            out[:, l * l + l - 1 : l * l - 1 : -1] = product[:l].T
    return out


def _icosahedron():
    g = (1.0 + math.sqrt(5.0)) / 2.0
    verts = np.array([
        [-1, g, 0], [1, g, 0], [-1, -g, 0], [1, -g, 0],
        [0, -1, g], [0, 1, g], [0, -1, -g], [0, 1, -g],
        [g, 0, -1], [g, 0, 1], [-g, 0, -1], [-g, 0, 1],
    ], dtype=float)
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    return verts, faces


def _subdivide(verts, faces):
    verts = list(verts)
    cache = {}

    def midpoint(i, j):
        key = (min(i, j), max(i, j))
        if key not in cache:
            v = verts[i] + verts[j]
            verts.append(v / np.linalg.norm(v))
            cache[key] = len(verts) - 1
        return cache[key]

    out = []
    for a, b, c in faces:
        ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        out += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
    return verts, out


def _triangle_area(a, b, c):
    """Spherical triangle area via L'Huilier's formula."""
    sa = math.acos(max(-1.0, min(1.0, float(np.dot(b, c)))))
    sb = math.acos(max(-1.0, min(1.0, float(np.dot(a, c)))))
    sc = math.acos(max(-1.0, min(1.0, float(np.dot(a, b)))))
    s = 0.5 * (sa + sb + sc)
    t = (math.tan(0.5 * s) * math.tan(0.5 * (s - sa))
         * math.tan(0.5 * (s - sb)) * math.tan(0.5 * (s - sc)))
    return 4.0 * math.atan(math.sqrt(max(t, 0.0)))


def _build_sphere(level, basis_order):
    verts, faces = _icosahedron()
    for _ in range(level):
        verts, faces = _subdivide(verts, faces)
    nodes = np.asarray(verts)
    areas = np.zeros(nodes.shape[0])
    for a, b, c in faces:
        t = _triangle_area(nodes[a], nodes[b], nodes[c]) / 3.0
        areas[a] += t
        areas[b] += t
        areas[c] += t
    weights = areas / areas.sum()
    if (2 * basis_order + 1) ** 2 > nodes.shape[0]:
        raise SpaceError(
            f"sphere level {level} ({nodes.shape[0]} nodes) cannot resolve "
            f"basis order {basis_order} (needs {(2 * basis_order + 1) ** 2} nodes)"
        )
    # Correct the area weights so that harmonics up to degree 2*basis_order
    # integrate exactly; this makes the grid Gram matrix of the basis the
    # identity up to round-off.
    moments = _sphere_basis(nodes, 2 * basis_order)
    target = np.zeros(moments.shape[1])
    target[0] = 1.0
    gram = moments.T * weights[None, :]
    resid = target - gram.sum(axis=1)
    correction = moments @ np.linalg.solve(moments.T @ moments, resid)
    weights = weights + correction
    if weights.min() <= 0.0:
        raise SpaceError(
            f"sphere quadrature correction produced nonpositive weights at level {level}; "
            "raise the subdivision level or lower the basis order"
        )
    weights = weights / weights.sum()
    cells = weights * 4.0 * np.pi
    eigs = [0.0]
    for l in range(1, basis_order + 1):
        eigs += [float(l * (l + 1))] * (2 * l + 1)
    basis = _sphere_basis(nodes, basis_order)
    return Space("sphere", 2, nodes, weights, cells,
                 {"resolution": level, "basis_order": basis_order},
                 eigenvalues=eigs, basis_values=basis)


def _build_box(resolution, bounds, density):
    bounds = [tuple(map(float, b)) for b in bounds]
    dim = len(bounds)
    if dim not in (1, 2):
        raise SpaceError(f"boxes support dimension 1 or 2, got {dim}")
    for a, b in bounds:
        if not b > a:
            raise SpaceError(f"degenerate box bounds ({a}, {b})")
    axes = [a + (b - a) * (np.arange(resolution) + 0.5) / resolution for a, b in bounds]
    if dim == 1:
        nodes = axes[0][:, None]
    else:
        xx, yy = np.meshgrid(axes[0], axes[1], indexing="ij")
        nodes = np.column_stack([xx.ravel(), yy.ravel()])
    cell = float(np.prod([(b - a) / resolution for a, b in bounds]))
    cells = np.full(nodes.shape[0], cell)
    params = {"resolution": resolution, "bounds": bounds, "density": density}
    if density:
        fn = compile_point_function(density, ["x", "y"][:dim])
        raw = fn(nodes)
        if np.any(raw <= 0.0) or not np.all(np.isfinite(raw)):
            raise SpaceError("box reference density must be finite and positive on the grid")
        params["_density_fn"] = fn
    else:
        raw = np.ones(nodes.shape[0])
    total = float((raw * cells).sum())
    weights = raw * cells / total
    params["_density_norm"] = 1.0 / total
    return Space("box", dim, nodes, weights, cells, params,
                 density_values=raw / total)


def build_space(kind, resolution, basis_order=None, bounds=None, density=None):
    """Construct a quadrature-ready space.

    ``resolution`` is the node count for the circle, the per-axis node count
    for the torus and boxes, and the icosahedral subdivision level for the
    sphere.  ``basis_order`` is the maximal frequency (circle/torus) or
    spherical-harmonic degree; boxes take none.
    """
    if kind not in ("circle", "torus", "sphere", "box"):
        raise SpaceError(f"unknown space kind {kind!r}")
    if kind == "box":
        if basis_order is not None:
            raise SpaceError("boxes carry no spectral basis; basis_order must be omitted")
        if bounds is None:
            raise SpaceError("boxes need explicit bounds")
        if resolution < _MIN_NODES:
            raise SpaceError(f"resolution {resolution} below minimum {_MIN_NODES}")
        return _build_box(resolution, bounds, density)
    if bounds is not None or density is not None:
        raise SpaceError(f"bounds/density only apply to boxes, not {kind!r}")
    if kind == "sphere":
        if resolution < 0 or resolution > 6:
            raise SpaceError(f"sphere subdivision level must be in 0..6, got {resolution}")
        if basis_order is None:
            basis_order = 12
        n_nodes = 10 * 4 ** resolution + 2
        if n_nodes < _MIN_NODES:
            raise SpaceError(f"resolution {resolution} below minimum node count {_MIN_NODES}")
        return _build_sphere(resolution, basis_order)
    if resolution < _MIN_NODES:
        raise SpaceError(f"resolution {resolution} below minimum {_MIN_NODES}")
    if basis_order is None:
        basis_order = max(1, resolution // 4)
    if basis_order < 1:
        raise SpaceError("basis_order must be at least 1")
    if 2 * basis_order >= resolution:
        raise SpaceError(
            f"aliasing guard: basis order {basis_order} needs resolution > {2 * basis_order}"
        )
    if kind == "circle":
        return _build_circle(resolution, basis_order)
    return _build_torus(resolution, basis_order)


# -- background charge ---------------------------------------------------------


class BackgroundCharge:
    """Signed density of total mass 1 against the reference measure."""

    def __init__(self, space, density_values):
        values = np.asarray(density_values, dtype=float)
        if values.shape != (space.n_nodes,):
            raise SpaceError(
                f"charge density has shape {values.shape}, expected ({space.n_nodes},)"
            )
        total = float((space.weights * values).sum())
        if abs(total - 1.0) > 1e-10:
            raise SpaceError(f"charge density integrates to {total!r}, expected 1")
        self.space = space
        self.values = values

    @classmethod
    def uniform(cls, space):
        return cls(space, np.ones(space.n_nodes))

    @classmethod
    def from_expression(cls, space, expr):
        values = compile_point_function(expr, _coordinate_names(space))(space.nodes)
        total = float((space.weights * values).sum())
        if abs(total) < 1e-12:
            raise SpaceError("charge expression integrates to 0; cannot normalize")
        return cls(space, values / total)


def _coordinate_names(space):
    return {
        "circle": ["theta"],
        "torus": ["u", "v"],
        "sphere": ["x", "y", "z"],
        "box": ["x", "y"][: space.point_dim],
    }[space.kind]


# -- Green model ---------------------------------------------------------------


class GreenModel:
    """Truncated spectral Green kernel for a background charge.

    ``order`` counts the nonconstant eigenfunctions kept in the expansion.
    """

    def __init__(self, space, charge, order=None):
        if not space.has_basis:
            raise SpaceError(f"space kind {space.kind!r} has no spectral basis")
        if charge.space is not space:
            raise SpaceError("charge was built on a different space")
        max_order = space.n_basis - 1
        if order is None:
            order = max_order
        if not 1 <= order <= max_order:
            raise SpaceError(f"truncation order {order} outside 1..{max_order}")
        self.space = space
        self.charge = charge
        self.order = order
        self.eigs = space.eigenvalues[1 : order + 1]
        # Scaling both factors by 1/sqrt(lambda) keeps every evaluation path
        # exactly symmetric in floating point.
        self._inv_sqrt_eigs = 1.0 / np.sqrt(self.eigs)
        basis = space.basis_values[:, 1 : order + 1]
        # Spectral coefficients of the charge density.
        self.charge_coeffs = basis.T @ (space.weights * charge.values)
        self.phi_nodes = basis @ (self.charge_coeffs / self.eigs)
        self.constant = float((self.charge_coeffs ** 2 / self.eigs).sum())

    @functools.cached_property
    def scaled_nodes(self):
        """Scaled node basis B~ = basis(nodes)[:, 1:order+1] / sqrt(lambda),
        built on first use so that models that only evaluate off the grid
        never hold it."""
        return self.space.basis_values[:, 1 : self.order + 1] * self._inv_sqrt_eigs

    def features(self, points):
        """Scaled basis rows b~(x) = basis(x)[1:order+1] / sqrt(lambda) and
        phi(x), from one basis evaluation; G(x, y) = b~(x).b~(y) - phi(x) - phi(y) + c."""
        return self._basis_features(self.space.evaluate_basis(points))

    def _basis_features(self, basis):
        """``features`` of the points whose basis rows are ``basis``."""
        basis = basis[:, 1 : self.order + 1]
        return basis * self._inv_sqrt_eigs, basis @ (self.charge_coeffs / self.eigs)

    def kernel_matrix(self):
        """The node-by-node kernel table as a rank-(order + 2) GreenOperator."""
        return GreenOperator(self.scaled_nodes, self.phi_nodes, self.constant)

    def node_diagonal(self):
        """G(node, node) at every grid node in O(n_nodes * order), without the table."""
        scaled = self.scaled_nodes
        return (np.einsum("ij,ij->i", scaled, scaled) - 2.0 * self.phi_nodes) + self.constant

    def pairwise(self, x, y):
        """Pairwise kernel values between two point arrays, finite on the
        diagonal; ``pairwise(x, x)`` evaluates the basis at x once."""
        fx = self.features(x)
        return self._feature_table(fx, fx if y is x else self.features(y))

    def _feature_table(self, fx, fy):
        """The kernel table between the points of two ``features`` pairs.
        One set of features on both sides is copied for the product: b~ @ b~.T
        on one buffer may take BLAS syrk, which rounds differently from gemm."""
        (bx, phi_x), (by, phi_y) = fx, fy
        if by is bx:
            by = by.copy()
        return (bx @ by.T - (phi_x[:, None] + phi_y[None, :])) + self.constant

    def rows_at_nodes(self, x):
        """Kernel values G(x_j, node_i) for arbitrary points x, shape (p, n_nodes)."""
        return self._feature_table(self.features(x), (self.scaled_nodes, self.phi_nodes))


class GreenOperator:
    """The node kernel table G = B~ B~^T - phi 1^T - 1 phi^T + c of a Green
    model, held as its factors: ``op @ x`` and ``x @ op`` cost
    O(n_nodes * order) and the n_nodes^2 table is never formed.  It offers
    products only; code that needs entries builds the table with
    ``energy.kernel_node_matrix``."""

    # makes ``ndarray @ op`` defer to __rmatmul__ instead of numpy treating
    # op as an object scalar
    __array_ufunc__ = None

    def __init__(self, scaled, phi, constant):
        self.scaled = scaled
        self.phi = phi
        self.constant = constant

    def __matmul__(self, x):
        if np.ndim(x) != 1:
            raise SpaceError("the Green node operator applies to vectors of node values")
        total = x.sum()
        return self.scaled @ (self.scaled.T @ x) - self.phi * total + (
            self.constant * total - float(self.phi @ x))

    # G is symmetric, so x @ G = G @ x
    __rmatmul__ = __matmul__


def green_identity_residual(model, f_coeffs, x):
    """Quadrature residual of the defining identity at the point ``x``.

    ``f_coeffs`` are coefficients of a test function in the space's basis
    (constant first).  The residual is

        | sum_i w_i G(x, node_i) (lap f)(node_i) + f(x) - int f dL |,

    with the Laplacian applied spectrally.  f(x) and the kernel row
    G(x, node_i) are both read from one basis evaluation at x.
    """
    space = model.space
    coeffs = np.asarray(f_coeffs, dtype=float)
    if coeffs.ndim != 1 or coeffs.shape[0] > space.n_basis:
        raise SpaceError(
            f"test function needs a 1-d coefficient vector of length <= {space.n_basis}"
        )
    if coeffs.shape[0] > model.order + 1 and np.any(coeffs[model.order + 1 :] != 0.0):
        raise SpaceError(
            f"test function has nonzero coefficients beyond truncation order {model.order}"
        )
    full = np.zeros(space.n_basis)
    full[: coeffs.shape[0]] = coeffs
    lap_nodes = space.basis_values @ (-space.eigenvalues * full)
    f_nodes = space.basis_values @ full
    basis = space.evaluate_basis(x)
    f_at_x = float((basis @ full)[0])
    g_row = model._feature_table(model._basis_features(basis),
                                 (model.scaled_nodes, model.phi_nodes))[0]
    integral = float((space.weights * g_row * lap_nodes).sum())
    target = float((space.weights * f_nodes * model.charge.values).sum())
    return abs(integral + f_at_x - target)
