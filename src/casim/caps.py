"""Work caps shared by the enumeration-heavy operations.

Every cap is a hard gate checked before work starts, so a caller can
bound worst-case cost up front.  All defaults are sized for desk-scale
experiments and can be overridden per call.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


class CapExceeded(Exception):
    """Raised when an operation would exceed its configured work cap."""


@dataclass(frozen=True)
class Caps:
    table_cap: int = 10_000_000  # max truth-table entries per algebra
    subalgebra_cap: int = 16     # max states for subalgebra enumeration
    congruence_cap: int = 12     # max states for congruence enumeration
    iso_cap: int = 10            # max states for general isomorphism search
    relabel_cap: int = 9         # max states for exhaustive relabeling search
    onedim_cap: int = 1_000_000  # max one-dimensional subspace representatives,
                                 # and max candidate maps in affine isomorphism search
    lattice_cap: int = 20_000    # max subalgebras, congruences or invariant subspaces

    def scaled_to(self, states: int) -> "Caps":
        """Caps with the per-state gates raised to cover `states` states."""
        return replace(
            self,
            subalgebra_cap=max(self.subalgebra_cap, states),
            congruence_cap=max(self.congruence_cap, states),
            iso_cap=max(self.iso_cap, states),
        )


DEFAULT_CAPS = Caps()


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CapExceeded(message)
