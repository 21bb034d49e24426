"""One sample path of the stochastically perturbed spherical pendulum.

The momentum is kicked through the gradients of gamma_i(q) = sin(q_i) by
three independent Wiener processes.  The variational scheme keeps the state
on the sphere and the velocity tangent to it at solver tolerance for every
step; the explicit reference scheme on the multiplier-eliminated dynamics
drifts off the sphere at O(h), which is why it serves only as an error
oracle.
"""

import numpy as np

import svpark as sv

system = sv.spherical_pendulum()
x0 = sv.State(q=np.array([1.0, 0.0, 0.0]), p=np.zeros(3))

paths = sv.generate(seed=2024, num_paths=1, num_channels=3, base_steps=2**10,
                    horizon=(0.0, 4.0))

variational = sv.simulate_path(system, "stochastic_variational_euler", x0, paths)
reference = sv.simulate_path(system, "euler_maruyama_ref", x0, paths)

print(f"h = {paths.h_base:.5f}, {paths.base_steps} steps, same Brownian path")
print(f"{'scheme':<28} {'max |g|':>10} {'max |dg.v|':>11} {'final height':>13}")
for name, traj in (("variational Euler", variational), ("Euler-Maruyama", reference)):
    print(
        f"{name:<28} {traj.constraint.max():>10.2e} {traj.hidden.max():>11.2e}"
        f" {traj.q[-1, 2]:>13.5f}"
    )

print("\nenergy along the variational path (noise does work on the system):")
e = variational.energy
idx = np.linspace(0, len(e) - 1, 9, dtype=int)
for i in idx:
    print(f"  t = {variational.times[i]:5.2f}   E = {e[i]:+.4f}")
