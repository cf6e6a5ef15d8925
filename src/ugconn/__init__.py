"""Connectivity workbench for Cayley graphs of unicyclic transposition sets.

``perms``, ``genset`` and ``cayley``, which building a graph needs, load
with the package.  ``flows``, ``cuts`` and ``lemmas`` load on first access
to them or to a name they export (PEP 562), so a process that only builds
graphs never compiles the flows, the scans or the checks.
"""

from importlib import import_module

from . import cayley, genset, perms  # noqa: F401

__version__ = "0.1.0"

#: the public names by the submodule that binds them; they give ``__all__``
_EXPORTS = {
    "cayley": (
        "CayleyGraph",
        "DenseGraph",
        "build_cayley",
        "girth",
        "out_neighbors",
        "to_dot",
        "to_edgelist",
        "to_graph6",
        "with_redirected_cross_edge",
    ),
    "genset": (
        "GeneratingGraph",
        "GeneratingGraphError",
        "PeelChoice",
        "build_generating_graph",
        "choose_peel",
        "classify",
        "describe",
        "relabel_to_canonical",
    ),
    "perms": (
        "CapacityError",
        "apply_swap",
        "identity",
        "parity",
        "parse_perm_string",
        "perm_string",
        "rank_perm",
        "unrank_perm",
        "validate_perm",
    ),
    "flows": (
        "ConnectivityResult",
        "vertex_connectivity",
        "vertex_connectivity_detail",
    ),
    "cuts": (
        "CutAnalysis",
        "CutWitness",
        "build_cycle_neighborhood_cut",
        "component_analysis",
        "disconnection_census",
        "enumerate_4cycles",
        "is_cyclic_cut",
        "is_good_neighbor_cut",
        "is_vertex_cut",
        "large_component_profile",
        "min_cyclic_cut_exhaustive",
        "min_good_neighbor_cut_exhaustive",
        "min_neighborhood_over_4subsets",
        "randomized_cut_falsifier",
        "render_witness",
    ),
    "lemmas": (
        "CHECK_IDS",
        "VerificationReport",
        "canonical_four_cycle",
        "common_neighbor_count",
        "cross_edges",
        "edge_label",
        "verify_all",
    ),
}

_HOME = {name: home for home, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    """A public name or a submodule of the table, bound on first access."""
    home = _HOME.get(name)
    if home is not None:
        value = globals()[name] = getattr(import_module(f".{home}", __name__), name)
        return value
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
