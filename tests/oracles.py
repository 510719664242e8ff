"""Dense 4x4 oracles for the Werner closed forms in ``povmsim.werner``.

Production computes ``p(i, j) = (p_i q_j / 4)(1 - eta a_i . b_j)`` and
``E(u, v) = -eta u . v`` directly; these build the state and the tensor
traces explicitly so tests can check the closed forms against them.
"""

import numpy as np

from povmsim.bloch import to_dense
from povmsim.povm import QubitPovm, projective_povm, require_visibility

# |psi-> = (|01> - |10>) / sqrt(2), basis order |00>, |01>, |10>, |11>.
SINGLET = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)


def werner_dense(eta: float) -> np.ndarray:
    """Dense 4x4 Werner state ``eta |psi-><psi-| + (1 - eta) I/4``."""
    require_visibility(eta)
    singlet = np.outer(SINGLET, SINGLET).astype(complex)
    return eta * singlet + (1.0 - eta) * np.eye(4, dtype=complex) / 4.0


def werner_joint_dense(alice: QubitPovm, bob: QubitPovm, eta: float) -> np.ndarray:
    """Joint distribution ``tr[(A_i x B_j) rho_W]`` from explicit tensor products."""
    rho = werner_dense(eta)
    out = np.empty((alice.n_outcomes, bob.n_outcomes))
    dense_a = [to_dense(alice.element(i)) for i in range(alice.n_outcomes)]
    dense_b = [to_dense(bob.element(j)) for j in range(bob.n_outcomes)]
    for i, ai in enumerate(dense_a):
        for j, bj in enumerate(dense_b):
            out[i, j] = float(np.trace(np.kron(ai, bj) @ rho).real)
    return out


def chsh_correlator_dense(u, v, eta: float) -> float:
    """Sign-weighted dense table ``sum_ij s_i s_j p(i, j)`` of sharp measurements."""
    joint = werner_joint_dense(projective_povm(u), projective_povm(v), eta)
    signs = np.array([1.0, -1.0])
    return float(signs @ joint @ signs)
