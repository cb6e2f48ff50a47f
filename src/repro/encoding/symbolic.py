"""Deriving face constraints by symbolic (multi-valued) minimization.

The two-step encoding strategy of the paper's Section 2: minimize the
symbolic cover with the present state as one multi-valued input
variable (ESPRESSO-MV style); every implicant of the result whose
state literal contains two or more states — and not all of them — is a
face constraint: if the encoding embeds that state group on a face of
the code cube, the implicant survives as a single product term in the
boolean domain.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .. import obs
from ..cubes import Space, bulk, cover_contains_cube
from ..espresso import espresso
from ..fsm import Fsm, fsm_to_symbolic_cover
from ..runtime import InvalidSpecError
from .constraints import ConstraintSet, FaceConstraint

__all__ = [
    "derive_face_constraints",
    "minimize_symbolic_cover",
    "constraints_from_cover",
]

#: above this many states the full espresso loop (whose off-set
#: computation splits on the state part value by value) is replaced by
#: the direct merge/expand pass below
_FULL_ESPRESSO_STATE_LIMIT = 64


def minimize_symbolic_cover(fsm: Fsm) -> Tuple[Space, List[int], List[str]]:
    """Multi-valued minimization of the FSM's input-encoding model.

    Incompletely specified behaviour (missing rows, ``-`` outputs,
    ``*`` next states) enters the minimization as a don't-care cover.
    """
    space, cover, dc, states = fsm_to_symbolic_cover(fsm, with_dc=True)
    if len(states) <= _FULL_ESPRESSO_STATE_LIMIT:
        minimized = espresso(space, cover, dc, use_lastgasp=False)
    else:
        minimized = _fast_symbolic_merge(
            space, cover, len(states), dc
        )
    return space, minimized, states


def _fast_symbolic_merge(
    space: Space,
    cover: List[int],
    n_states: int,
    dc: Sequence[int] = (),
) -> List[int]:
    """Coverage-preserving merge for very large state counts.

    Above the state limit the off-set over the state part (121 values
    for ``scf``) is intractable in pure Python, so two sound steps
    replace the full espresso fixed point:

    1. rows identical outside the state part merge into one cube whose
       state literal is the union (exactly how groups of states with
       identical behaviour become multi-state implicants);
    2. each cube's state literal grows by every state value ``v`` whose
       slice — the cube with its state literal cut to ``v`` — lies
       inside the care cover (cover plus don't-cares).  The slice test
       is a containment check of the cube against ``care``'s cofactor
       at ``v``, taken once per state value; the cofactor admits every
       state, so the cube's own state literal does not matter.

    Step 2 makes the same decision as growing the cube one value at a
    time and testing the grown cube against ``care``: the grown cube is
    the cube plus one slice, and the cube itself is always covered (a
    merge of cover rows).  So each slice test is independent of the
    values already accepted, and the accepted values are OR-ed in at
    once.

    The result covers the same minterms as ``cover``; it is simply a
    shorter SOP with wider state literals — which is all the
    face-constraint derivation needs.
    """
    state_part = space.num_parts - 2
    result = bulk.absorb(bulk.merge_part(space, cover, state_part))

    offset = space.offsets[state_part]
    care = list(cover) + list(dc)
    slices = [
        bulk.cofactor_value(space, care, state_part, value)
        for value in range(n_states)
    ]
    expanded: List[int] = []
    checks = 0
    for cube in result:
        grown = cube
        for value in range(n_states):
            bit = 1 << (offset + value)
            if cube & bit:
                continue
            checks += 1
            if cover_contains_cube(space, slices[value], cube):
                grown |= bit
        expanded.append(grown)
    obs.count("symbolic.merge.checks", checks)
    return bulk.absorb(expanded)


def constraints_from_cover(
    space: Space,
    cover: Sequence[int],
    states: Sequence[str],
) -> ConstraintSet:
    """Extract the face constraints from a minimized symbolic cover.

    The state variable is the second-to-last part of ``space`` (the
    layout produced by :func:`repro.fsm.fsm_to_symbolic_cover`).
    """
    state_part = space.num_parts - 2
    n_states = space.part_sizes[state_part]
    if n_states != len(states):
        raise InvalidSpecError("state count does not match space layout")
    counts: dict = {}
    result = ConstraintSet(list(states))
    full = (1 << n_states) - 1
    for cube in cover:
        field = space.field(cube, state_part)
        size = bin(field).count("1")
        if size < 2 or field == full:
            continue
        counts[field] = counts.get(field, 0) + 1
    # multiplicity = how many symbolic implicants need this face; it
    # becomes the constraint weight (NOVA weights its constraints the
    # same way)
    for field, count in counts.items():
        members = [states[i] for i in range(n_states) if field & (1 << i)]
        result.add(FaceConstraint(members, weight=float(count)))
    return result


def derive_face_constraints(fsm: Fsm) -> ConstraintSet:
    """FSM -> face constraints (the paper's Table I 'const' column)."""
    with obs.span("symbolic/derive", fsm=fsm.name, states=fsm.n_states):
        space, minimized, states = minimize_symbolic_cover(fsm)
        return constraints_from_cover(space, minimized, states)
