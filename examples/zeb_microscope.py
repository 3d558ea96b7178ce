"""A microscope on one pixel of the ZEB.

Renders two interpenetrating objects, picks a contested pixel, and
prints what the RBCD hardware sees there: the depth-sorted ZEB list
(Figure 4's output) and the FF-Stack walk of the Z-Overlap Test
(Figure 5), step by step.

Run:  python examples/zeb_microscope.py
"""

import numpy as np

from repro.geometry import Mat4, Vec3, make_box, make_uv_sphere
from repro.gpu.commands import DrawCommand, Frame
from repro.gpu.config import GPUConfig
from repro.gpu.pipeline import GPU
from repro.rbcd.element import quantize_depth
from repro.rbcd.zeb import build_zeb
from repro.scenes.camera import Camera

CFG = GPUConfig().with_screen(160, 96)
NAMES = {1: "A (box)", 2: "B (sphere)"}


def main() -> None:
    camera = Camera(eye=Vec3(0, 0, 5), target=Vec3.zero())
    frame = Frame(
        draws=(
            DrawCommand(make_box(Vec3(0.5, 0.5, 0.5)),
                        Mat4.translation(Vec3(-0.25, 0, 0)), object_id=1),
            DrawCommand(make_uv_sphere(0.5, 12, 18),
                        Mat4.translation(Vec3(0.35, 0, 0)), object_id=2),
        ),
        view=camera.view(),
        projection=camera.projection(CFG.screen_width / CFG.screen_height),
    )
    result = GPU(CFG, rbcd_enabled=True).render_frame(frame, keep_fragments=True)
    frags = result.fragments

    # Find the most contested pixel (most collisionable fragments).
    coll = np.flatnonzero(frags.object_id >= 0)
    keys = frags.y[coll].astype(np.int64) * CFG.screen_width + frags.x[coll]
    best_key = np.bincount(keys).argmax()
    px, py = int(best_key % CFG.screen_width), int(best_key // CFG.screen_width)
    at_pixel = coll[keys == best_key]
    print(f"pixel ({px}, {py}) receives {at_pixel.size} collisionable fragments\n")

    # Re-run the sorted insertion for just this pixel.
    ts = CFG.tile_size
    local = (py % ts) * ts + (px % ts)
    tile = build_zeb(
        np.full(at_pixel.size, local),
        quantize_depth(frags.z[at_pixel], CFG.rbcd),
        frags.object_id[at_pixel],
        frags.front[at_pixel],
        CFG.rbcd,
        CFG.tile_pixels,
    )
    row = int(np.flatnonzero(tile.pixel_index == local)[0])
    n = int(tile.counts[row])
    print("ZEB list after sorted insertion (front to back):")
    for k in range(n):
        face = "[" if tile.is_front[row, k] else "]"
        oid = int(tile.object_ids[row, k])
        print(f"  {k}: {face}{oid}  z_code={int(tile.z_codes[row, k]):6d}  "
              f"({NAMES.get(oid, oid)} {'front' if tile.is_front[row, k] else 'back'})")

    # Walk the FF-Stack by hand, narrating each step.
    print("\nZ-Overlap Test walk:")
    stack: list[list] = []  # [id, matched]
    for k in range(n):
        oid = int(tile.object_ids[row, k])
        front = bool(tile.is_front[row, k])
        if front:
            stack.append([oid, False])
            print(f"  [{oid}: push            stack = {format_stack(stack)}")
            continue
        match = next((i for i, (sid, m) in enumerate(stack)
                      if sid == oid and not m), None)
        if match is None:
            print(f"  ]{oid}: no unmatched front — ignored")
            continue
        hits = [sid for sid, _ in stack[match + 1:] if sid != oid]
        stack[match][1] = True
        note = f" -> notify {[f'<{h},{oid}>' for h in hits]}" if hits else ""
        print(f"  ]{oid}: match at {match}  stack = {format_stack(stack)}{note}")

    print(f"\npairs reported for the frame: {result.collisions.as_sorted_pairs()}")


def format_stack(stack) -> str:
    return "[" + ", ".join(f"[{sid}{'*' if m else ''}" for sid, m in stack) + "]"


if __name__ == "__main__":
    main()
