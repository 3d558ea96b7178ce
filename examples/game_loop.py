"""The Figure 7 game loop, with RBCD doing the collision detection.

A stack of balls drops onto a floor.  Every frame:

1. the scene is rendered through the GPU model — the RBCD unit detects
   collisions as a by-product of rendering (Figure 7b);
2. the CPU runs only Collision Response (impulses) on the reported
   pairs, then integrates the rigid bodies;
3. for comparison, the same frame's CD is also priced on the software
   baseline (broad+GJK), showing the work RBCD removed from the CPU.

Run:  python examples/game_loop.py
"""

from repro.core import RBCDSystem
from repro.cpu.model import CPUModel
from repro.geometry import Mat4, Vec3, make_box, make_icosphere
from repro.physics.dynamics import PhysicsWorld, RigidBody
from repro.physics.world import CollisionWorld
from repro.scenes.camera import Camera

FRAMES = 90
DT = 1.0 / 60.0


def main() -> None:
    physics = PhysicsWorld()
    physics.add_body(
        RigidBody(0, make_box(Vec3(4.0, 0.4, 4.0)), Vec3(0, 0, 0), inverse_mass=0.0)
    )
    ball = make_icosphere(0.45, subdivisions=2)
    drops = [Vec3(-0.3, 2.5, 0.0), Vec3(0.35, 4.0, 0.1), Vec3(0.0, 5.6, -0.1)]
    for i, start in enumerate(drops, start=1):
        physics.add_body(RigidBody(i, ball, start, restitution=0.4))

    system = RBCDSystem(resolution=(320, 200))
    camera = Camera(eye=Vec3(0.0, 3.0, 9.0), target=Vec3(0.0, 1.5, 0.0))

    # Software CD world over the same meshes, for the cost comparison.
    software = CollisionWorld()
    for body in physics.bodies():
        software.add_object(body.body_id, body.mesh)
    cpu = CPUModel()

    rbcd_gpu_cycles = 0.0
    cpu_cd_seconds = 0.0
    contacts_resolved = 0

    for frame in range(FRAMES):
        objects = [
            (body.body_id, body.mesh, body.model_matrix())
            for body in physics.bodies()
        ]
        # CD on the GPU (the RBCD path of Figure 7b).
        result = system.detect(objects, camera)
        pairs = sorted(result.pairs)
        rbcd_gpu_cycles += result.stats.gpu_cycles

        # What the conventional loop (Figure 7a) would have paid.
        for body in physics.bodies():
            software.set_transform(body.body_id, body.model_matrix())
        cpu_cd_seconds += cpu.price(software.detect("broad+narrow").ops).seconds

        # Collision Response + time step on the CPU.
        contacts_resolved += physics.step(DT, pairs)

        if frame % 15 == 0:
            heights = ", ".join(
                f"{physics.body(i).position.y:5.2f}" for i in (1, 2, 3)
            )
            print(f"frame {frame:3d}  ball heights: [{heights}]  pairs: {pairs}")

    print()
    print(f"contacts resolved over the run : {contacts_resolved}")
    for i in (1, 2, 3):
        y = physics.body(i).position.y
        print(f"ball {i} settled at y = {y:.2f}")
    print()
    print(f"software CD would have cost the CPU : {cpu_cd_seconds * 1e3:8.2f} ms")
    print("with RBCD, that CPU work is gone — CD rides along with rendering.")


if __name__ == "__main__":
    main()
