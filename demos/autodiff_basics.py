# What the tape gives you: build an expression, call backward, read
# gradients off the leaves.  Run from the repo root:
#
#   python demos/autodiff_basics.py

import numpy as np

from gedlab import Tensor, backward, finite_diff_check, reset_graph
from gedlab.tensor import cross_entropy, linear, linear_relu, sum_all

# a two-layer scalar bowl: f(w) = sum(relu(x W1) W2)
rng = np.random.default_rng(0)
x = Tensor(rng.normal(size=(4, 3)))  # constant: no grad requested
w1 = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
w2 = Tensor(rng.normal(size=(5, 2)), requires_grad=True)
# linear(x, w, b) is x W + b as one tape node, and linear_relu(x, w, b)
# relu(x W + b); a zero constant b drops it
no_b1, no_b2 = Tensor(np.zeros(5)), Tensor(np.zeros(2))

# cross_entropy takes logits and applies the row softmax itself
hidden = linear_relu(x, w1, no_b1)
logits = linear(hidden, w2, no_b2)
loss = cross_entropy(logits, np.array([0, 1, 1, 0]))
print("loss:", loss.item())

backward(loss)
print("dL/dw1 has shape", w1.grad.shape, "and norm %.4f" % np.linalg.norm(w1.grad))
print("dL/dw2 has shape", w2.grad.shape, "and norm %.4f" % np.linalg.norm(w2.grad))

# the same gradients, one finite difference at a time
reset_graph()
w1.zero_grad()
w2.zero_grad()


def f():
    return cross_entropy(linear(linear_relu(x, w1, no_b1), w2, no_b2),
                         np.array([0, 1, 1, 0]))


report = finite_diff_check(f, [("w1", w1), ("w2", w2)], eps=1e-5, tol=1e-4)
print("finite differences agree:", report.passed,
      "(worst %.2e at %s over %d components)"
      % (report.max_rel_err, report.worst_param, report.n_checked))

# gradients accumulate across backward calls until zero_grad
reset_graph()
w = Tensor(np.ones((2, 2)), requires_grad=True)
for _ in range(3):
    reset_graph()
    backward(sum_all(linear(w, w, Tensor(np.zeros(2)))))
print("three accumulated backward passes, grad[0,0] =", w.grad[0, 0])
