"""CAF teams (Fortran 2018 ``form team`` / ``change team``).

Teams partition the images; inside a ``change team`` construct,
``this_image()``/``num_images()`` are team-relative, co-subscripts name
*team* images, ``sync all`` synchronizes the team only, and coarrays
(and locks/events) allocated inside the construct are team-scoped
collectives.  The paper lists such beyond-F2008 features among those
"available in the CAF implementation in OpenUH" (Section II-A); here
they ride on the same runtime mapping — team synchronization is a
subset barrier, team allocation is subset agreement on the shared
symmetric allocator.

Usage::

    team = caf.form_team(1 + (caf.this_image() - 1) % 2)  # odds/evens
    with caf.change_team(team):
        x = caf.coarray((4,), np.int64)   # team-scoped coarray
        caf.sync_all()                    # team barrier
        v = x.on(1)[0]                    # team image 1
"""

from __future__ import annotations

import threading
import typing

from repro.caf.runtime import CafError, CafRuntime
from repro.runtime.context import current

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.groups import _GroupSync


class Team:
    """One team: its number, members (absolute PEs), and sync state."""

    def __init__(self, runtime: CafRuntime, team_number: int, member_pes: tuple[int, ...]) -> None:
        self.runtime = runtime
        self.team_number = team_number
        self.member_pes = member_pes
        # pe -> 0-based team rank, cached once: membership lookups are
        # on every collective's hot path (no linear member scans).
        self._rank_of = {pe: r for r, pe in enumerate(member_pes)}
        self.group: "_GroupSync" = runtime.job.groups.get(member_pes)

    @property
    def num_images(self) -> int:
        return len(self.member_pes)

    def rank_of(self, pe: int) -> int:
        """0-based team rank of an absolute PE."""
        try:
            return self._rank_of[pe]
        except KeyError:
            raise CafError(f"PE {pe} is not a member of team {self.team_number}") from None

    def team_image_of(self, pe: int) -> int:
        """1-based team image index of an absolute PE."""
        return self.rank_of(pe) + 1

    def pe_of(self, team_image: int) -> int:
        """Absolute PE of a 1-based team image index."""
        if not 1 <= team_image <= self.num_images:
            raise CafError(
                f"image {team_image} out of range [1, {self.num_images}] "
                f"in team {self.team_number}"
            )
        return self.member_pes[team_image - 1]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Team(number={self.team_number}, images={self.num_images})"


def form_team(rt: CafRuntime, team_number: int) -> Team:
    """``form team(team_number, team)`` — collective over the *current*
    team (initially all images); images with equal numbers team up."""
    if team_number < 1:
        raise CafError("team numbers must be positive (Fortran 2018)")
    ctx = current()
    parent_pes = rt.team_pes()
    if ctx.pe not in parent_pes:
        raise CafError("form_team called by a non-member of the current team")
    # Gather every member's team number through a shared map.
    shared = rt.agree(
        "form_team", lambda: {"lock": threading.Lock(), "map": {}}
    )
    with shared["lock"]:
        shared["map"][ctx.pe] = team_number
    rt.barrier()
    members = tuple(sorted(p for p in parent_pes if shared["map"].get(p) == team_number))
    team = Team(rt, team_number, members)
    rt.barrier()  # the map may be reused only after everyone has read it
    return team


class ChangeTeam:
    """Context manager for ``change team (team) ... end team``."""

    def __init__(self, rt: CafRuntime, team: Team) -> None:
        self.rt = rt
        self.team = team
        self._outer: Team | None = None

    def __enter__(self) -> Team:
        ctx = current()
        if ctx.pe not in self.team.member_pes:
            raise CafError(
                f"image {ctx.pe + 1} is not a member of team "
                f"{self.team.team_number}"
            )
        self._outer = self.rt._team[ctx.pe]
        self.rt._team[ctx.pe] = self.team
        # change team begins with an implicit team synchronization
        self.rt.barrier()
        return self.team

    def __exit__(self, exc_type, exc, tb) -> None:
        ctx = current()
        if exc_type is None:
            # end team also synchronizes the team
            self.rt.barrier()
        self.rt._team[ctx.pe] = self._outer
