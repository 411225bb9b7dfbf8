#include "core/design.h"

#include <stdexcept>

namespace cellsync {

Reduced_design make_reduced_design(const Matrix& kernel, const Matrix& penalty,
                                   const Qp_constraint_prep& prep) {
    const Matrix& z = prep.z_basis();
    const Vector& x0 = prep.x_particular();
    Reduced_design out;
    out.kz = kernel * z;
    out.kx0 = kernel * x0;
    out.penalty = 2.0 * (z.transposed() * (penalty * z));
    out.penalty_gradient = 2.0 * transposed_times(z, penalty * x0);
    out.ztz = gram(z);
    out.ztx0 = transposed_times(z, x0);
    return out;
}

std::shared_ptr<const Design_artifacts> make_design_artifacts(
    std::shared_ptr<const Basis> basis, const Kernel_grid& kernel,
    const Cell_cycle_config& config, const Constraint_options& constraint_options) {
    if (!basis) throw std::invalid_argument("make_design_artifacts: null basis");
    config.validate();

    auto artifacts = std::make_shared<Design_artifacts>();
    artifacts->basis = std::move(basis);
    artifacts->config = config;
    artifacts->times = kernel.times();
    artifacts->kernel_matrix = kernel.basis_matrix(*artifacts->basis);
    artifacts->penalty = artifacts->basis->penalty_matrix();
    artifacts->constraint_options = constraint_options;
    artifacts->constraints = build_constraints(*artifacts->basis, config, constraint_options);
    artifacts->constraint_prep = std::make_shared<const Qp_constraint_prep>(
        artifacts->basis->size(), artifacts->constraints.equality,
        artifacts->constraints.equality_rhs, artifacts->constraints.inequality,
        artifacts->constraints.inequality_rhs);
    artifacts->reduced_design = make_reduced_design(artifacts->kernel_matrix, artifacts->penalty,
                                                    *artifacts->constraint_prep);
    return artifacts;
}

}  // namespace cellsync
