import numpy as np

from conecert import chebyshev_points, integral_moments, positive_quadrature

# the affine map of the Chebyshev-Lobatto points rounds the first node of
# this interval to 4.4e-16 below a
A, B = -2.1124434925352644, 2.5692661377622166


def test_chebyshev_end_nodes_are_the_endpoints():
    points = chebyshev_points(88, A, B)
    assert points[0] == A
    assert points[-1] == B
    assert np.all(np.diff(points) > 0)


def test_quadrature_nodes_stay_in_interval():
    rule = positive_quadrature(integral_moments(10, A, B), 88)
    assert rule.nodes.min() >= A
    assert rule.nodes.max() <= B
