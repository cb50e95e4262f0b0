#include "circuit/batched.hh"

#include <algorithm>

#include "util/logging.hh"

namespace vn
{

namespace
{

/** Index of a node in the unknown vector, or -1 for ground. */
inline int
nodeIndex(NodeId node)
{
    return node - 1;
}

} // namespace

BatchedTransientSolver::BatchedTransientSolver(
    std::shared_ptr<const Factorization> fact, size_t lanes)
    : fact_(std::move(fact)), lanes_(lanes)
{
    if (!fact_)
        fatal("BatchedTransientSolver: null factorization");
    if (lanes_ == 0)
        fatal("BatchedTransientSolver: lanes must be >= 1");

    const size_t caps = fact_->netlist().capacitors().size();
    cap_voltage_.assign(caps * lanes_, 0.0);
    cap_current_.assign(caps * lanes_, 0.0);
    ind_current_.assign(fact_->numInductors() * lanes_, 0.0);
    ind_voltage_.assign(fact_->numInductors() * lanes_, 0.0);
    solution_.assign(fact_->dim() * lanes_, 0.0);
    rhs_.assign(fact_->dim() * lanes_, 0.0);
    ground_sink_.assign(lanes_, 0.0);
    ground_zero_.assign(lanes_, 0.0);
}

BatchedTransientSolver::BatchedTransientSolver(const Netlist &netlist,
                                               double dt, size_t lanes)
    : BatchedTransientSolver(FactorizationCache::global().get(netlist, dt),
                             lanes)
{
}

void
BatchedTransientSolver::checkLane(size_t lane, const char *context) const
{
    if (lane >= lanes_)
        fatal("BatchedTransientSolver::", context, "(): bad lane ", lane,
              " (have ", lanes_, ")");
}

double *
BatchedTransientSolver::rhsRow(std::vector<double> &rhs, NodeId node)
{
    int idx = nodeIndex(node);
    return idx >= 0 ? &rhs[static_cast<size_t>(idx) * lanes_]
                    : ground_sink_.data();
}

const double *
BatchedTransientSolver::voltageRow(NodeId node) const
{
    int idx = nodeIndex(node);
    return idx >= 0 ? &solution_[static_cast<size_t>(idx) * lanes_]
                    : ground_zero_.data();
}

void
BatchedTransientSolver::fillPortCurrents(
    std::span<const double> port_currents, std::vector<double> &rhs)
{
    const Netlist &netlist = fact_->netlist();
    const size_t num_ports = netlist.ports().size();
    if (port_currents.size() != num_ports * lanes_)
        fatal("BatchedTransientSolver: expected ", num_ports, " x ",
              lanes_, " lane-major port currents, got ",
              port_currents.size());
    // Per lane: ports in netlist order, -= into `from`, += into `to`.
    for (size_t p = 0; p < num_ports; ++p) {
        const auto &port = netlist.ports()[p];
        double *rhs_from = rhsRow(rhs, port.from);
        double *rhs_to = rhsRow(rhs, port.to);
        for (size_t k = 0; k < lanes_; ++k) {
            double current = port_currents[k * num_ports + p];
            rhs_from[k] -= current;
            rhs_to[k] += current;
        }
    }
}

void
BatchedTransientSolver::initDcOperatingPoint(
    std::span<const double> port_currents)
{
    const Netlist &netlist = fact_->netlist();
    const size_t num_nodes = fact_->numNodes();
    const size_t num_vsrc = fact_->numVoltageSources();
    const size_t num_ind = fact_->numInductors();

    std::vector<double> rhs(fact_->dim() * lanes_, 0.0);
    for (size_t s = 0; s < num_vsrc; ++s) {
        double *row = &rhs[(num_nodes + s) * lanes_];
        const double volts = netlist.voltageSources()[s].volts;
        for (size_t k = 0; k < lanes_; ++k)
            row[k] = volts;
    }

    fillPortCurrents(port_currents, rhs);

    fact_->dcLu().solveLanesInto(rhs, lanes_, solution_);
    time_ = 0.0;

    for (size_t i = 0; i < netlist.capacitors().size(); ++i) {
        const auto &c = netlist.capacitors()[i];
        const double *va = voltageRow(c.a);
        const double *vb = voltageRow(c.b);
        double *cv = &cap_voltage_[i * lanes_];
        double *cc = &cap_current_[i * lanes_];
        for (size_t k = 0; k < lanes_; ++k) {
            cv[k] = va[k] - vb[k];
            cc[k] = 0.0;
        }
    }
    for (size_t m = 0; m < num_ind; ++m) {
        const double *branch = &solution_[(num_nodes + num_vsrc + m) *
                                          lanes_];
        double *ic = &ind_current_[m * lanes_];
        double *iv = &ind_voltage_[m * lanes_];
        for (size_t k = 0; k < lanes_; ++k) {
            ic[k] = branch[k];
            iv[k] = 0.0;
        }
    }
}

void
BatchedTransientSolver::step(std::span<const double> port_currents)
{
    const Netlist &netlist = fact_->netlist();
    const size_t num_nodes = fact_->numNodes();
    const size_t num_vsrc = fact_->numVoltageSources();
    const size_t num_ind = fact_->numInductors();
    const std::span<const double> cap_geq = fact_->capGeq();
    const std::span<const double> ind_req = fact_->indReq();

    std::fill(rhs_.begin(), rhs_.end(), 0.0);

    // Capacitor companions: conductance Geq already in the matrix; the
    // history term injects Ieq = Geq*v_n + i_n from b into a.
    const auto &caps = netlist.capacitors();
    for (size_t i = 0; i < caps.size(); ++i) {
        const double geq = cap_geq[i];
        const double *cv = &cap_voltage_[i * lanes_];
        const double *cc = &cap_current_[i * lanes_];
        double *rhs_a = rhsRow(rhs_, caps[i].a);
        double *rhs_b = rhsRow(rhs_, caps[i].b);
        for (size_t k = 0; k < lanes_; ++k) {
            double ieq = geq * cv[k] + cc[k];
            rhs_a[k] += ieq;
            rhs_b[k] -= ieq;
        }
    }

    for (size_t s = 0; s < num_vsrc; ++s) {
        double *row = &rhs_[(num_nodes + s) * lanes_];
        const double volts = netlist.voltageSources()[s].volts;
        for (size_t k = 0; k < lanes_; ++k)
            row[k] = volts;
    }

    // Inductor companions: v_a - v_b - Req*i_{n+1} = -(Req*i_n + v_n).
    for (size_t m = 0; m < num_ind; ++m) {
        const double req = ind_req[m];
        const double *ic = &ind_current_[m * lanes_];
        const double *iv = &ind_voltage_[m * lanes_];
        double *row = &rhs_[(num_nodes + num_vsrc + m) * lanes_];
        for (size_t k = 0; k < lanes_; ++k)
            row[k] = -(req * ic[k] + iv[k]);
    }

    fillPortCurrents(port_currents, rhs_);

    fact_->transientLu().solveLanesInto(rhs_, lanes_, solution_);
    time_ += fact_->dt();

    for (size_t i = 0; i < caps.size(); ++i) {
        const double geq = cap_geq[i];
        const double *va = voltageRow(caps[i].a);
        const double *vb = voltageRow(caps[i].b);
        double *cv = &cap_voltage_[i * lanes_];
        double *cc = &cap_current_[i * lanes_];
        for (size_t k = 0; k < lanes_; ++k) {
            double v_new = va[k] - vb[k];
            double ieq = geq * cv[k] + cc[k];
            cc[k] = geq * v_new - ieq;
            cv[k] = v_new;
        }
    }
    for (size_t m = 0; m < num_ind; ++m) {
        const auto &l = netlist.inductors()[m];
        const double *branch = &solution_[(num_nodes + num_vsrc + m) *
                                          lanes_];
        const double *va = voltageRow(l.a);
        const double *vb = voltageRow(l.b);
        double *ic = &ind_current_[m * lanes_];
        double *iv = &ind_voltage_[m * lanes_];
        for (size_t k = 0; k < lanes_; ++k) {
            ic[k] = branch[k];
            iv[k] = va[k] - vb[k];
        }
    }
}

double
BatchedTransientSolver::nodeVoltage(size_t lane, NodeId node) const
{
    checkLane(lane, "nodeVoltage");
    if (node == Netlist::ground)
        return 0.0;
    int idx = nodeIndex(node);
    if (idx < 0 || static_cast<size_t>(idx) >= fact_->numNodes())
        fatal("BatchedTransientSolver::nodeVoltage(): bad node ", node);
    return solution_[static_cast<size_t>(idx) * lanes_ + lane];
}

double
BatchedTransientSolver::inductorCurrent(size_t lane, size_t i) const
{
    checkLane(lane, "inductorCurrent");
    if (i >= fact_->numInductors())
        fatal("BatchedTransientSolver::inductorCurrent(): bad index ", i);
    return ind_current_[i * lanes_ + lane];
}

double
BatchedTransientSolver::sourceCurrent(size_t lane, size_t i) const
{
    checkLane(lane, "sourceCurrent");
    if (i >= fact_->numVoltageSources())
        fatal("BatchedTransientSolver::sourceCurrent(): bad index ", i);
    return solution_[(fact_->numNodes() + i) * lanes_ + lane];
}

} // namespace vn
