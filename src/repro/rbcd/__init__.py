"""The RBCD unit: the paper's contribution (Sections 3.4-3.5).

``ZEB`` models the Z-depth Extended Buffer with its hardware sorted
insertion; ``overlap`` implements the Z-Overlap Test's FF-Stack
traversal (Figure 5 semantics); ``RBCDUnit`` composes them with the
double-buffering and cycle/energy accounting used by the pipeline
timing model.
"""

from repro.rbcd.element import pack_element, unpack_element, quantize_depth
from repro.rbcd.zeb import ZEBTile, build_zeb
from repro.rbcd.overlap import OverlapResult, analyze_tile
from repro.rbcd.manifold import ContactManifold, build_manifold, unproject_contacts
from repro.rbcd.pairs import CollisionPair, ContactPoint, CollisionReport
from repro.rbcd.unit import RBCDTiles, RBCDUnit

__all__ = [
    "CollisionPair",
    "ContactManifold",
    "CollisionReport",
    "ContactPoint",
    "OverlapResult",
    "RBCDTiles",
    "RBCDUnit",
    "ZEBTile",
    "analyze_tile",
    "build_manifold",
    "build_zeb",
    "pack_element",
    "quantize_depth",
    "unpack_element",
    "unproject_contacts",
]
