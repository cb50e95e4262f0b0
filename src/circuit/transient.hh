/**
 * @file
 * Time-domain simulation of a Netlist via modified nodal analysis with
 * trapezoidal companion models, one stimulus at a time.
 *
 * TransientSolver is a one-lane view of BatchedTransientSolver
 * (batched.hh), which holds the only stamp/step/DC-init code: the
 * system matrix is LU-factorized once per (netlist, dt) in a shared
 * `Factorization` interned by the process-wide `FactorizationCache`,
 * and each step rebuilds the right-hand side from the reactive-element
 * state and the port currents and performs one forward/back
 * substitution. Lanes never mix arithmetically, so this view produces
 * the same bits as the matching lane of any wider batch.
 */

#ifndef VN_CIRCUIT_TRANSIENT_HH
#define VN_CIRCUIT_TRANSIENT_HH

#include <memory>
#include <span>

#include "circuit/batched.hh"
#include "circuit/factorization.hh"
#include "circuit/netlist.hh"

namespace vn
{

/**
 * Trapezoidal-rule transient solver over a fixed time step: a
 * BatchedTransientSolver with one lane.
 */
class TransientSolver
{
  public:
    /**
     * Build the solver for a netlist at the given step size. The
     * factorization is fetched from (or added to) the process-wide
     * FactorizationCache, so constructing many solvers for the same
     * (netlist, dt) is cheap and they share one read-only LU.
     *
     * @param netlist network to simulate
     * @param dt      integration step in seconds (> 0)
     */
    TransientSolver(const Netlist &netlist, double dt)
        : lane_(netlist, dt, 1)
    {}

    /**
     * Build the solver on an explicitly shared factorization (e.g. one
     * the campaign engine fetched once and handed to every job).
     */
    explicit TransientSolver(std::shared_ptr<const Factorization> fact)
        : lane_(std::move(fact), 1)
    {}

    /**
     * Initialize all states from the DC operating point with the given
     * port currents (capacitors open, inductors shorted). Resets time
     * to zero. Call before the first step(); starting from an exact
     * operating point avoids a spurious start-up transient.
     */
    void
    initDcOperatingPoint(std::span<const double> port_currents)
    {
        lane_.initDcOperatingPoint(port_currents);
    }

    /**
     * Advance one time step with the given per-port load currents
     * (amperes, one entry per PortId, treated as constant across the
     * step).
     */
    void
    step(std::span<const double> port_currents)
    {
        lane_.step(port_currents);
    }

    /** Current simulation time in seconds. */
    double time() const { return lane_.time(); }

    /** Integration step. */
    double dt() const { return lane_.dt(); }

    /** The shared factorization this solver runs on. */
    const std::shared_ptr<const Factorization> &
    factorization() const
    {
        return lane_.factorization();
    }

    /** Voltage of a node at the current time. */
    double
    nodeVoltage(NodeId node) const
    {
        return lane_.nodeVoltage(0, node);
    }

    /** Branch current of inductor index i (netlist order). */
    double
    inductorCurrent(size_t i) const
    {
        return lane_.inductorCurrent(0, i);
    }

    /** Branch current of voltage source index i (netlist order). */
    double
    sourceCurrent(size_t i) const
    {
        return lane_.sourceCurrent(0, i);
    }

  private:
    BatchedTransientSolver lane_;
};

} // namespace vn

#endif // VN_CIRCUIT_TRANSIENT_HH
