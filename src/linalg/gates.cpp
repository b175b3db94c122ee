#include "linalg/gates.h"

#include <cmath>
#include <numbers>

namespace qfab::gates {

namespace {
constexpr double kPi = std::numbers::pi;
const cplx kI{0.0, 1.0};

cplx expi(double t) { return {std::cos(t), std::sin(t)}; }
}  // namespace

Matrix I() { return Matrix::identity(2); }

Matrix X() {
  return Matrix{{0.0, 1.0}, {1.0, 0.0}};
}

Matrix Y() {
  return Matrix{{0.0, -kI}, {kI, 0.0}};
}

Matrix Z() {
  return Matrix{{1.0, 0.0}, {0.0, -1.0}};
}

Matrix H() {
  const double s = 1.0 / std::sqrt(2.0);
  return Matrix{{s, s}, {s, -s}};
}

Matrix SX() {
  // 0.5 * [[1+i, 1-i], [1-i, 1+i]]
  const cplx a{0.5, 0.5}, b{0.5, -0.5};
  return Matrix{{a, b}, {b, a}};
}

Matrix SXdg() { return SX().adjoint(); }

Matrix RZ(double theta) {
  return Matrix{{expi(-theta / 2), 0.0}, {0.0, expi(theta / 2)}};
}

Matrix P(double lambda) {
  return Matrix{{1.0, 0.0}, {0.0, expi(lambda)}};
}

Matrix R_l(int l) {
  QFAB_CHECK(l >= 1);
  return P(2.0 * kPi / std::pow(2.0, l));
}

Matrix controlled(const Matrix& u) {
  const std::size_t d = u.rows();
  QFAB_CHECK(u.cols() == d);
  Matrix out = Matrix::identity(2 * d);
  for (std::size_t i = 0; i < d; ++i)
    for (std::size_t j = 0; j < d; ++j) out.at(d + i, d + j) = u.at(i, j);
  return out;
}

Matrix CX() { return controlled(X()); }
Matrix CP(double lambda) { return controlled(P(lambda)); }
Matrix CH() { return controlled(H()); }
Matrix CRl(int l) { return controlled(R_l(l)); }
Matrix CCP(double lambda) { return controlled(controlled(P(lambda))); }

Matrix SWAP() {
  return Matrix{{1.0, 0.0, 0.0, 0.0},
                {0.0, 0.0, 1.0, 0.0},
                {0.0, 1.0, 0.0, 0.0},
                {0.0, 0.0, 0.0, 1.0}};
}

}  // namespace qfab::gates
