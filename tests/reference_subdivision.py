"""The whole coherent subdivision of a sum of polygons, by brute force.

`full_subdivision_2d` tries every combination of one face per polygon
whose dimensions sum to 2 and keeps those that `mixedvol._touching`
accepts and that span area: the cells of the subdivision a lifting
induces, mixed or not. Their areas sum to the area of the Minkowski
sum, and the mixed ones (edge plus edge) to the mixed area, which the
tests check against the library's mixed-cell search.
"""

import itertools

from lamanmv import polytopes
from lamanmv.errors import InputError, NonGenericLiftingError
from lamanmv.mixedvol import NO, YES_TIE, _touching


def full_subdivision_2d(polys, lifting):
    """All cells (mixed or not) of the induced subdivision in the plane.

    Returns a list of (face_tuple, area) where face_tuple holds one face
    (as a vertex tuple) per polytope and the face dimensions sum to 2.
    The areas of all cells sum to the area of the Minkowski sum. A face
    combination is a cell when it spans area and `_touching` accepts it.
    The lifting needs one 2-entry vector per polytope; anything else
    raises InputError.
    """
    polys = list(polys)
    if any(p.ambient_dim != 2 for p in polys):
        raise InputError("full subdivision recovery is implemented in 2D only")
    if len(lifting) != len(polys) or any(len(mu) != 2 for mu in lifting):
        raise InputError("need one lifting vector of 2 entries per polytope")
    face_sets = []
    for p in polys:
        faces = [(0, (v,)) for v in p.vertices]
        faces.extend((1, e) for e in p.edges())
        if p.dim() == 2:
            faces.append((2, tuple(p.vertices)))
        face_sets.append(faces)
    cells = []
    ties = []
    for combo in itertools.product(*face_sets):
        if sum(d for d, _ in combo) != 2:
            continue
        verdict = _touching(polys, lifting, [f for _, f in combo])
        if verdict == NO:
            continue
        piece, *rest = (polytopes.RationalPolytope.from_points(f) for _, f in combo)
        for q in rest:
            piece = polytopes.minkowski_sum(piece, q)
        area = polytopes.volume_exact(piece)
        if area == 0:
            continue
        if verdict == YES_TIE:
            ties.append(combo)
            continue
        cells.append((tuple(f for _, f in combo), area))
    if ties:
        raise NonGenericLiftingError("subdivision has tie cells; re-seed")
    return cells
