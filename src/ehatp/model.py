"""Ground facts, belief bases, possible worlds, and epistemic states.

Everything here is immutable; the planner shares these structures freely
between search branches.  A belief base stores positive ground atoms only and
answers negative queries by closed-world absence.  Uncertainty is never stored
inside a base: a fact an agent is unsure of appears with different values
across the worlds of an :class:`EpistemicState`.

Bases and worlds are identified by packed ints: each ground atom is interned
to one bit, a base is the mask of its atoms, a world holds its three bases as
masks, and its key is a tuple of ints built once, reusing the ids of the
agendas it keeps from the world it was built from.  Worlds are hash-consed on
that key, weakly: a live world is the one object with its content.  Readable
text (``describe``, ``canonical``, the ``bel_*`` views) is built only where it
leaves the process.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Iterable, Mapping, NamedTuple
from weakref import KeyedRef

AGENTS = ("R", "H")


class EhatpError(Exception):
    """Base class for planner errors."""


class MalformedLiteralError(EhatpError):
    pass


class FrozenInstanceError(AttributeError):
    """An assignment to, or deletion of, a field of a built `Frozen` value."""


def is_variable(symbol: str) -> bool:
    # Capitalized identifiers are variables, except the two reserved agents.
    return bool(symbol) and symbol[0].isupper() and symbol not in AGENTS


class Literal(NamedTuple):
    """A predicate applied to argument symbols, with polarity.

    A tuple, so hashing and equality run in C; its hash is that of the
    tuple of its fields.
    """

    pred: str
    args: tuple[str, ...] = ()
    positive: bool = True

    def __str__(self) -> str:
        core = self.pred if not self.args else f"{self.pred}({','.join(self.args)})"
        return core if self.positive else f"not {core}"

    @property
    def atom(self) -> "Literal":
        return self if self.positive else Literal(self.pred, self.args)

    def negate(self) -> "Literal":
        return Literal(self.pred, self.args, not self.positive)

    def is_ground(self) -> bool:
        return not any(is_variable(a) for a in self.args)

    def substitute(self, binding: Mapping[str, str]) -> "Literal":
        return Literal(
            self.pred,
            tuple(binding.get(a, a) for a in self.args),
            self.positive,
        )


def _require_ground(l: Literal) -> None:
    if not l.is_ground():
        raise MalformedLiteralError(f"literal is not ground: {l}")


# --------------------------------------------------------------------------
# Interned atoms
#
# Every positive ground atom a base ever holds gets one bit, once per
# process, so a belief base is an int and a world's identity is a tuple of
# ints.  The table only grows; bits therefore follow the order in which the
# process first met each atom, and nothing that leaves the process may
# depend on that order.

_BIT: dict[Literal, int] = {}  # atom -> its bit (a power of two)
_ATOMS: list[Literal] = []  # bit index -> atom


def atom_bit(atom: Literal) -> int:
    """The bit of a positive ground atom, interning it on first sight.

    This is the only place atoms are validated: an atom gets a bit only
    after it passes, so every bit in a mask stands for a well-formed atom.
    """
    bit = _BIT.get(atom)
    if bit is None:
        if not atom.positive:
            raise MalformedLiteralError(f"belief bases store positive atoms only: {atom}")
        _require_ground(atom)
        bit = _BIT[atom] = 1 << len(_ATOMS)
        _ATOMS.append(atom)
    return bit


def known_bit(atom: Literal) -> int:
    """The bit of a positive atom, or 0 for one never interned, which is in
    no base: a test or a removal that interns nothing."""
    return _BIT.get(atom, 0)


def atoms_of(mask: int) -> list[Literal]:
    """The atoms of a mask, in bit order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(_ATOMS[low.bit_length() - 1])
        mask ^= low
    return out


def effect_masks(adds: Iterable[Literal], dels: Iterable[Literal]) -> tuple[int, int]:
    """The ``(add, drop)`` masks of effect literals, interning adds first.

    The parser rejects an action whose add and delete can name one atom, so
    the masks of a parsed model's actions are disjoint.
    """
    add = 0
    for a in adds:
        add |= atom_bit(a.atom)
    drop = 0
    for d in dels:
        drop |= atom_bit(d.atom)
    return add, drop


_new = object.__new__


class Frozen:
    """Base of the immutable value types a named tuple cannot be: those
    compared by identity, by a key, or by some of their fields.

    Their fields are ``__slots__`` that only the constructor fills, through
    each slot descriptor's ``__set__`` (see `slot_setters`); assigning or
    deleting an attribute afterwards raises, so a memo can share them.  A
    class that names fields in ``_compared`` is equal, hashed and shown by
    those alone.
    """

    __slots__ = ()
    _compared: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        if "_compared" in vars(cls):
            cls.__eq__, cls.__hash__ = Frozen._same_fields, Frozen._hash_fields

    def __setattr__(self, name: str, value: object = None) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def _fill(self, *values: object) -> None:
        """Fill the class's own slots with ``values``, in order: the
        constructor of a value built once per parse, not per search step."""
        for set_slot, value in zip(slot_setters(type(self)), values):
            set_slot(self, value)

    def _same_fields(self, other: object) -> bool:
        return type(other) is type(self) and all(
            getattr(other, n) == getattr(self, n) for n in self._compared)

    def _hash_fields(self) -> int:
        return hash(tuple([getattr(self, n) for n in self._compared]))

    def __repr__(self) -> str:
        names = self._compared or [n for n in type(self).__slots__ if not n.startswith("_")]
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{type(self).__name__}({fields})"


def slot_setters(cls: type) -> tuple:
    """The ``__set__`` of each of ``cls``'s own slots but ``__weakref__``, in
    order: a constructor fills a slot with one call, past ``Frozen``'s guard."""
    return tuple(vars(cls)[name].__set__ for name in cls.__slots__ if name != "__weakref__")


class BeliefBase(Frozen):
    """A definite set of positive ground atoms under the closed-world reading,
    stored as the bitmask of its interned atoms."""

    __slots__ = ("mask",)
    _compared = __slots__
    mask: int

    def __init__(self, atoms: Iterable[Literal] = frozenset()) -> None:
        mask = 0
        for a in atoms:
            mask |= atom_bit(a)
        _set_mask(self, mask)

    @classmethod
    def from_mask(cls, mask: int) -> "BeliefBase":
        b = _new(cls)
        _set_mask(b, mask)
        return b

    @property
    def atoms(self) -> frozenset[Literal]:
        return frozenset(atoms_of(self.mask))

    def entails(self, l: Literal) -> bool:
        bit = _BIT.get(l.atom)
        if bit is None:
            _require_ground(l)  # a ground atom never interned is in no base
            return not l.positive
        return bool(self.mask & bit) == l.positive

    def canonical(self) -> tuple[str, ...]:
        return tuple(sorted(str(a) for a in atoms_of(self.mask)))

    def __str__(self) -> str:
        return "{" + ", ".join(self.canonical()) + "}"

    def __repr__(self) -> str:
        return f"BeliefBase({self})"


(_set_mask,) = slot_setters(BeliefBase)


# --------------------------------------------------------------------------
# Unification


def unify(pattern: Literal, atom: Literal,
          binding: Mapping[str, str] | None = None) -> dict[str, str] | None:
    """``binding`` extended to a most general unifier of ``pattern`` and
    ``atom``, or None.  Either side may hold variables.  The unifier is kept
    resolved: no variable it binds occurs in a value, so one ``substitute``
    applies it whole (``p(X, Y)`` against ``p(Y, X)`` gives ``{X: Y}``)."""
    if pattern.pred != atom.pred or len(pattern.args) != len(atom.args):
        return None
    out = dict(binding) if binding else {}
    for want, got in zip(pattern.args, atom.args):
        want = out.get(want, want)
        got = out.get(got, got)
        if want == got:
            continue
        if is_variable(want):
            var, term = want, got
        elif is_variable(got):
            var, term = got, want
        else:
            return None
        for v, t in out.items():
            if t == var:
                out[v] = term
        out[var] = term
    return out


# --------------------------------------------------------------------------
# Task agendas


class Task(NamedTuple):
    """A task on an agenda: an action or abstract task name with its
    argument symbols (a tuple, like :class:`Literal`)."""

    name: str
    args: tuple[str, ...] = ()

    def __str__(self) -> str:
        return self.name if not self.args else f"{self.name}({','.join(self.args)})"


TaskNetwork = tuple[Task, ...]


def network_str(tn: TaskNetwork) -> str:
    return "[" + ", ".join(str(t) for t in tn) + "]"


# --------------------------------------------------------------------------
# Worlds and epistemic states


_AGENDA_ID: dict[TaskNetwork, int] = {}  # interned task networks


def _agenda_id(tn: TaskNetwork) -> int:
    i = _AGENDA_ID.get(tn)
    if i is None:
        i = _AGENDA_ID[tn] = len(_AGENDA_ID)
    return i


class World(Frozen):
    """One hypothetical course of the task.

    The masks of three bases: ``mask_r`` the ground truth of this hypothesis,
    ``mask_h`` the human's beliefs in it, ``mask_rh`` the human's model of the
    robot's.  ``acted`` counts the ontic robot actions applied in this world
    since the agents last shared a place; it bounds how far the anticipated
    robot may run ahead.  ``distinguishable`` marks a world the human told
    apart from the designated one while watching the robot act; situation
    assessment removes such worlds.  `world_from` returns the live world
    with equal content, so worlds compare and hash by identity (the object
    defaults).
    """

    __slots__ = ("mask_r", "mask_h", "mask_rh", "tn_r", "tn_h", "tn_rh", "acted",
                 "distinguishable", "_key", "__weakref__")
    mask_r: int
    mask_h: int
    mask_rh: int
    tn_r: TaskNetwork
    tn_h: TaskNetwork
    tn_rh: TaskNetwork
    acted: int
    distinguishable: bool
    _key: tuple

    def __new__(cls, bel_r: BeliefBase, bel_h: BeliefBase, bel_rh: BeliefBase,
                tn_r: TaskNetwork = (), tn_h: TaskNetwork = (), tn_rh: TaskNetwork = (),
                acted: int = 0, distinguishable: bool = False) -> "World":
        return world_from(None, bel_r.mask, bel_h.mask, bel_rh.mask,
                          tn_r, tn_h, tn_rh, acted, distinguishable)

    def key(self) -> tuple:
        """The world's content as ints: equal keys, one world."""
        return self._key

    @property
    def wid(self) -> "World":  # the world is its own identity
        return self

    # Views of the masks as bases, for text that leaves the process.
    bel_r = property(lambda self: BeliefBase.from_mask(self.mask_r))
    bel_h = property(lambda self: BeliefBase.from_mask(self.mask_h))
    bel_rh = property(lambda self: BeliefBase.from_mask(self.mask_rh))

    def describe(self) -> str:
        """The world's content as readable text, the same in every process."""
        parts = [
            "bel_r=" + ",".join(self.bel_r.canonical()),
            "bel_h=" + ",".join(self.bel_h.canonical()),
            "bel_rh=" + ",".join(self.bel_rh.canonical()),
            "tn_r=" + network_str(self.tn_r),
            "tn_h=" + network_str(self.tn_h),
            "tn_rh=" + network_str(self.tn_rh),
            f"acted={self.acted}",
        ]
        if self.distinguishable:
            parts.append("dist")
        return ";".join(parts)


(_w_mask_r, _w_mask_h, _w_mask_rh, _w_tn_r, _w_tn_h, _w_tn_rh, _w_acted,
 _w_distinguishable, _w_key) = slot_setters(World)


_WORLDS: dict[tuple, KeyedRef] = {}  # the live world of each key, weakly


def _forget(ref: KeyedRef, table: dict = _WORLDS) -> None:
    """Drop a dead world's entry, not a newer world's (``table`` is bound
    here: module globals may be gone at shutdown)."""
    if table.get(ref.key) is ref:
        del table[ref.key]


def world_from(source: World | None, mask_r: int, mask_h: int, mask_rh: int,
               tn_r: TaskNetwork, tn_h: TaskNetwork, tn_rh: TaskNetwork,
               acted: int, distinguishable: bool = False) -> World:
    """The world with these masks and agendas, built from ``source`` (None
    for a first world): an agenda passed through from ``source`` unchanged,
    the same object, keeps its interned id, and only a new one is interned.
    A live world with this content is returned as it is."""
    if source is None:
        id_r, id_h, id_rh = _agenda_id(tn_r), _agenda_id(tn_h), _agenda_id(tn_rh)
    else:
        ids = source._key
        id_r = ids[3] if tn_r is source.tn_r else _agenda_id(tn_r)
        id_h = ids[4] if tn_h is source.tn_h else _agenda_id(tn_h)
        id_rh = ids[5] if tn_rh is source.tn_rh else _agenda_id(tn_rh)
    key = (mask_r, mask_h, mask_rh, id_r, id_h, id_rh, acted, distinguishable)
    ref = _WORLDS.get(key)
    w = ref and ref()
    if w is not None:
        return w
    w = _new(World)
    _w_mask_r(w, mask_r)
    _w_mask_h(w, mask_h)
    _w_mask_rh(w, mask_rh)
    _w_tn_r(w, tn_r)
    _w_tn_h(w, tn_h)
    _w_tn_rh(w, tn_rh)
    _w_acted(w, acted)
    _w_distinguishable(w, distinguishable)
    _w_key(w, key)
    _WORLDS[key] = KeyedRef(w, _forget, key)
    return w


class EpistemicState(Frozen):
    """Worlds the human cannot tell apart, with the one matching reality marked.

    ``actor`` names whose turn it is, ``budget`` the remaining ontic robot
    actions allowed before the next reunion, and ``pending`` the facts the
    human has asked to be told (a forced inform on the robot's next turn).
    ``designated_world`` is ``worlds[designated]``, kept as a field since
    every step reads it.  A state compares by identity; its `signature`,
    the other five fields, identifies it among live states.
    """

    __slots__ = ("worlds", "designated", "actor", "budget", "pending", "designated_world")
    worlds: tuple[World, ...]
    designated: int
    actor: str
    budget: int
    pending: tuple[Literal, ...]
    designated_world: World

    @classmethod
    def make(
        cls,
        worlds: Iterable[World],
        designated: World,
        actor: str,
        budget: int,
        pending: tuple[Literal, ...] = (),
    ) -> "EpistemicState":
        """Canonicalize: deduplicate worlds (by identity, which is by
        content) and sort them by key, not by the order or address given."""
        unique = set(worlds)
        unique.add(designated)
        if len(unique) == 1:
            ordered, index = (designated,), 0
        else:
            ordered = tuple(sorted(unique, key=_by_key))
            index = ordered.index(designated)
        s = _new(cls)
        _s_worlds(s, ordered)
        _s_designated(s, index)
        _s_actor(s, actor)
        _s_budget(s, budget)
        _s_pending(s, tuple(sorted(pending, key=str)) if pending else ())
        _s_designated_world(s, designated)
        return s

    def __repr__(self) -> str:
        return (f"EpistemicState(worlds={self.worlds!r}, designated={self.designated!r}, "
                f"actor={self.actor!r}, budget={self.budget!r}, pending={self.pending!r})")

    def signature(self) -> tuple:
        """The state's identity among live states, usable as a dict key.  It
        holds the worlds themselves, alive as long as the key, so a state
        rebuilt meanwhile has the same signature."""
        return (self.worlds, self.designated, self.actor, self.budget, self.pending)


_s_worlds, _s_designated, _s_actor, _s_budget, _s_pending, _s_designated_world = (
    slot_setters(EpistemicState))

_by_key = attrgetter("_key")
