import ast
import inspect

import numpy as np
import pytest

import oracles


class TestIndependence:
    def test_oracles_import_nothing_from_package(self):
        """Brute-force references must not lean on the kernels they check."""
        tree = ast.parse(inspect.getsource(oracles))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
                assert not any(n.split(".")[0] == "elastic_tickets" for n in names), names
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                assert node.level == 0, "relative import found in oracles"
                assert module.split(".")[0] != "elastic_tickets", module


class TestGuards:
    def test_matmul_guard(self):
        big = np.zeros((200, 200), np.float32)
        with pytest.raises(oracles.OracleGuardError):
            oracles.oracle_matmul(big, big)

    def test_forward_guard(self):
        layers = [{"kind": "dense", "w": np.zeros((200, 200)), "b": None}]
        with pytest.raises(oracles.OracleGuardError):
            oracles.oracle_forward_scalar(layers, np.zeros((1, 200)))

    def test_fd_guard(self):
        with pytest.raises(oracles.OracleGuardError):
            oracles.oracle_fd_grad(lambda t: 0.0, np.zeros(20_000), 1e-4)


class TestForwardScalar:
    def test_zero_net_zero_logits(self):
        layers = [{"kind": "dense", "w": np.zeros((4, 3)), "b": np.zeros(3)}]
        out = oracles.oracle_forward_scalar(layers, np.ones((2, 4)))
        assert np.array_equal(out, np.zeros((2, 3)))

    def test_identity_conv_kernel_passthrough(self):
        c = 3
        w = np.zeros((c, c, 1, 1))
        for i in range(c):
            w[i, i, 0, 0] = 1.0
        x = np.arange(2 * c * 4 * 4, dtype=np.float64).reshape(2, c, 4, 4)
        out = oracles.oracle_forward_scalar([{"kind": "conv2d", "w": w}], x)
        assert np.array_equal(out, x)

    def test_bn_eval_layer(self):
        x = np.array([[[[2.0]], [[4.0]]]])  # n=1, c=2, 1x1
        layer = {"kind": "bn_eval", "gamma": [1.0, 2.0], "beta": [0.5, 0.0],
                 "mean": [1.0, 0.0], "var": [1.0, 4.0], "eps": 0.0}
        out = oracles.oracle_forward_scalar([layer], x)
        assert np.allclose(out.ravel(), [1.5, 4.0])


class TestFdGrad:
    def test_quadratic_is_exact_to_h_squared_scale(self):
        a = np.diag([1.0, 2.0, 3.0])
        theta = np.array([1.0, -1.0, 0.5])
        grad = oracles.oracle_fd_grad(lambda t: 0.5 * t @ a @ t, theta, 1e-4)
        # central differences are exact on quadratics up to float cancellation
        assert np.abs(grad - a @ theta).max() < 1e-9

    def test_order_two_convergence(self):
        theta = np.array([0.3, -0.7])

        def loss(t):
            return float(np.sin(t[0]) * np.exp(t[1]))

        exact = np.array([np.cos(0.3) * np.exp(-0.7), np.sin(0.3) * np.exp(-0.7)])
        e1 = np.linalg.norm(oracles.oracle_fd_grad(loss, theta, 2e-2) - exact)
        e2 = np.linalg.norm(oracles.oracle_fd_grad(loss, theta, 1e-2) - exact)
        assert e1 / e2 > 3.0


class TestGlobalPruneOracle:
    def test_target_zero_keeps_all(self):
        out = oracles.oracle_global_prune([("a", np.array([1.0, -2.0]))], 0)
        assert out["a"].tolist() == [1.0, 1.0]

    def test_all_equal_magnitudes_tiebreak(self):
        out = oracles.oracle_global_prune(
            [("a", np.ones(3)), ("b", np.ones(3))], 2)
        assert out["a"].tolist() == [1.0, 1.0, 1.0]
        assert out["b"].tolist() == [1.0, 0.0, 0.0]  # later (path, index) pruned first
