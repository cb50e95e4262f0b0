/**
 * @file
 * Lane-batched trapezoidal transient solver: K same-topology stimuli
 * advance together through one shared LU factorization. This is the
 * only stamp/step/DC-init implementation; TransientSolver
 * (transient.hh) is its one-lane view.
 *
 * Unknown ordering: node voltages (ground excluded), then voltage-source
 * branch currents, then inductor branch currents.
 *
 * State vectors are stored structure-of-arrays — element (i, k) of
 * unknown/reactive-element i and lane k lives at index `i * lanes + k`
 * — so the innermost loop of every kernel (right-hand-side assembly,
 * forward/back substitution, companion-state update) runs over
 * contiguous lanes and vectorizes. Each lu(i, j) entry is loaded once
 * per step and amortized over all K lanes, which is where the
 * order-of-magnitude campaign speedup comes from: a 1000-seed campaign
 * becomes ~1000/K substitution sweeps.
 *
 * Lane-invariance contract: every lane executes the same operation
 * sequence (same stamp order, same j-loop order, no cross-lane
 * arithmetic), so a lane's voltages, currents and reactive states do
 * not depend on how many lanes run beside it or on its position in the
 * batch: lane k of a K-lane solver is bit-identical to a one-lane
 * solver fed the same stimulus. tests/circuit/test_batched.cc enforces
 * this byte-for-byte and pins the results to golden digests; it is
 * what lets campaigns of any batch width share cache entries and wire
 * responses.
 */

#ifndef VN_CIRCUIT_BATCHED_HH
#define VN_CIRCUIT_BATCHED_HH

#include <memory>
#include <span>
#include <vector>

#include "circuit/factorization.hh"
#include "circuit/netlist.hh"

namespace vn
{

/**
 * Trapezoidal-rule transient solver advancing K independent stimulus
 * lanes per step over one shared factorization.
 *
 * Port currents are passed lane-major: entry `lane * portCount() + p`
 * is lane `lane`'s current into port p, so each lane's producer fills
 * a contiguous slice.
 */
class BatchedTransientSolver
{
  public:
    /**
     * @param fact  shared factorization (from FactorizationCache or
     *              another solver's factorization())
     * @param lanes number of stimulus lanes K (>= 1)
     */
    BatchedTransientSolver(std::shared_ptr<const Factorization> fact,
                           size_t lanes);

    /** Convenience: fetch the factorization from the global cache. */
    BatchedTransientSolver(const Netlist &netlist, double dt,
                           size_t lanes);

    /** Number of stimulus lanes K. */
    size_t lanes() const { return lanes_; }

    /** Ports per lane. */
    size_t portCount() const { return fact_->netlist().ports().size(); }

    /** Current simulation time in seconds (shared by all lanes). */
    double time() const { return time_; }

    /** Integration step. */
    double dt() const { return fact_->dt(); }

    /** The shared factorization this solver runs on. */
    const std::shared_ptr<const Factorization> &
    factorization() const
    {
        return fact_;
    }

    /**
     * Initialize every lane from its DC operating point (capacitors
     * open, inductors shorted). `port_currents` is lane-major with
     * lanes() * portCount() entries. Resets time to zero.
     */
    void initDcOperatingPoint(std::span<const double> port_currents);

    /**
     * Advance all lanes one time step. `port_currents` is lane-major
     * with lanes() * portCount() entries, treated as constant across
     * the step.
     */
    void step(std::span<const double> port_currents);

    /** Voltage of `node` in `lane` at the current time. */
    double nodeVoltage(size_t lane, NodeId node) const;

    /** Branch current of inductor index i in `lane`. */
    double inductorCurrent(size_t lane, size_t i) const;

    /** Branch current of voltage source index i in `lane`. */
    double sourceCurrent(size_t lane, size_t i) const;

  private:
    /** `node`'s lane row in `rhs`; ground stamps land in ground_sink_. */
    double *rhsRow(std::vector<double> &rhs, NodeId node);
    /** `node`'s lane row of voltages; ground reads ground_zero_. */
    const double *voltageRow(NodeId node) const;
    void fillPortCurrents(std::span<const double> port_currents,
                          std::vector<double> &rhs);
    void checkLane(size_t lane, const char *context) const;

    std::shared_ptr<const Factorization> fact_;
    size_t lanes_;
    double time_ = 0.0;

    // All SoA, [element * lanes_ + lane].
    std::vector<double> solution_;
    std::vector<double> cap_voltage_;
    std::vector<double> cap_current_;
    std::vector<double> ind_current_;
    std::vector<double> ind_voltage_;
    std::vector<double> rhs_;

    // One lane row each for the ground node, so no stamp or update
    // loop branches per lane on ground: stamps into ground go to the
    // never-read sink, and ground voltage reads the all-zero row, the
    // same operands an explicit 0.0 would give.
    std::vector<double> ground_sink_;
    std::vector<double> ground_zero_;
};

} // namespace vn

#endif // VN_CIRCUIT_BATCHED_HH
