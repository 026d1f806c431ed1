/**
 * @file
 * Centralized REMAP_* environment-switch reads.
 *
 * Every kill switch and mode override the simulator honours is
 * declared here, parsed in one place and announced once per process
 * (like the JobPool worker-count log), instead of ad-hoc getenv()
 * calls scattered through component constructors. The helpers still
 * re-read the environment on every call — the differential tests
 * flip switches with setenv()/unsetenv() around component
 * construction, and components latch the value in their constructor
 * — but the *first* observation of a set switch is logged, so a run
 * with REMAP_NO_LEAP=1 is explainable from its log.
 *
 * Switches:
 *  - REMAP_NO_LEAP=1        disable the event-horizon leap scheduler
 *  - REMAP_NO_BLOCK_CACHE=1 disable the decoded basic-block cache
 *  - REMAP_NO_MRU=1         disable the cache MRU-way fast path
 *  - REMAP_NO_THREADED=1    disable computed-goto threaded dispatch
 *  - REMAP_NO_SAMPLE_REPLAY=1 disable checkpointed sample replay
 *  - REMAP_SAMPLE=...       default sampled-mode schedule (see
 *                           env::sampleParams())
 *  - REMAP_TRACE_PERIOD=N   trace counter-sampling period (see
 *                           env::tracePeriod())
 */

#ifndef REMAP_SIM_ENV_HH
#define REMAP_SIM_ENV_HH

#include <cstdint>
#include <string>

#include "sim/sampling.hh"

namespace remap::env
{

/** True when REMAP_NO_LEAP is set: event-horizon leap disabled. */
bool noLeap();

/** True when REMAP_NO_BLOCK_CACHE is set: decoded-block cache off. */
bool noBlockCache();

/** True when REMAP_NO_MRU is set: cache MRU-way fast path off. */
bool noMru();

/** True when REMAP_NO_THREADED is set: computed-goto dispatch off
 *  (generic switch dispatch everywhere). */
bool noThreaded();

/** True when REMAP_NO_SAMPLE_REPLAY is set: checkpointed sample
 *  replay disabled — sampled runs always re-simulate functional
 *  warming, exactly the pre-replay behaviour. */
bool noSampleReplay();

/**
 * Strict REMAP_SAMPLE-value parser. Accepted forms:
 *
 *   "1"                    the built-in default schedule
 *   "P" / "P,M" / "P,M,W"  explicit period / measured-window /
 *                          detailed-warm-up lengths in committed
 *                          instructions (decimal, no signs)
 *   "auto"                 adaptive schedule, default 2% relative
 *                          CI half-width target
 *   "auto,H"               adaptive with target H in (0, 1)
 *
 * Anything else — sign characters, empty fields, trailing garbage,
 * a zero period or window, a window or warm+window that does not fit
 * the period, a target outside (0, 1) — fails: @p out is left
 * disabled and @p error receives a one-line description. Exposed so
 * each malformed form is unit-testable without a fatal exit.
 */
bool parseSampleSpec(const char *text, sampling::SampleParams *out,
                     std::string *error);

/**
 * The sampled-mode schedule requested via REMAP_SAMPLE, or a
 * disabled default when the variable is unset. Malformed values are
 * a fatal error (one clear line, via parseSampleSpec()) — a mistyped
 * schedule must never silently fall back to exact simulation.
 */
sampling::SampleParams sampleParams();

/**
 * Strict REMAP_TRACE_PERIOD-value parser: a nonempty decimal cycle
 * count (digits only, so no signs, spaces or suffixes; "0" turns
 * counter sampling off). On failure @p out is untouched and @p error
 * receives a one-line description.
 */
bool parseTracePeriod(const char *text, std::uint64_t *out,
                      std::string *error);

/**
 * The trace counter-sampling period from REMAP_TRACE_PERIOD, or
 * @p dflt when the variable is unset. Malformed values are a fatal
 * error (via parseTracePeriod()): "abc" must not silently disable
 * sampling and "10k" must not mean 10.
 */
std::uint64_t tracePeriod(std::uint64_t dflt);

} // namespace remap::env

#endif // REMAP_SIM_ENV_HH
