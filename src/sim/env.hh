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
 * Kill switches (unset = fast path on, "1" = off; any other value,
 * including "0" and the empty string, is a fatal error):
 *  - REMAP_NO_LEAP=1        disable per-core sleep: every core ticks
 *                           on every cycle (the per-cycle reference)
 *
 * Switches (same strict form: unset = off, "1" = on):
 *  - REMAP_PROFILE=1        sample every pool job's host CPU time by
 *                           phase (env::profile(), sim/profile.hh)
 *
 * Mode overrides:
 *  - REMAP_TRACE_PERIOD=N   trace counter-sampling period (see
 *                           env::tracePeriod())
 *
 * Counts (decimal digits only; anything else is a fatal error):
 *  - REMAP_JOBS=N           job-pool workers (env::jobs())
 *
 * Directories (nonempty; the empty string is a fatal error):
 *  - REMAP_MANIFEST=DIR     run-manifest output (env::manifestDir())
 *  - REMAP_TRACE=PATH       trace output base path (env::traceFile())
 *
 * Any other REMAP_* name is unknown (env::unknownVariables()); the
 * job pool warns about each one once, so a stale or misspelt
 * variable is named instead of silently ignored.
 */

#ifndef REMAP_SIM_ENV_HH
#define REMAP_SIM_ENV_HH

#include <cstdint>
#include <string>
#include <vector>

namespace remap::env
{

/**
 * Strict kill-switch parser for the variable @p name holding @p text
 * (null when unset). Unset sets @p off to false, "1" sets it to true;
 * anything else — "0", "", "yes", " 1" — fails with a one-line
 * @p error naming the variable, so a value meant to keep a fast path
 * on can never silently turn it off.
 */
bool parseKillSwitch(const char *name, const char *text, bool *off,
                     std::string *error);

/** True when REMAP_PROFILE=1: each JobPool job arms a
 *  prof::ThreadSampler. Parsed like a kill switch, so "0" is a fatal
 *  error, never "on". */
bool profile();

/** True when REMAP_NO_LEAP=1: per-core sleep off, so the run loop
 *  ticks every core on every cycle (the per-cycle reference). */
bool noLeap();

/**
 * Strict parser for a decimal count held by the variable @p name:
 * nonempty, digits only (no signs, spaces or suffixes), at most 19
 * digits so it cannot overflow. On failure @p out is untouched and
 * @p error receives a one-line description naming the variable.
 */
bool parseCount(const char *name, const char *text, std::uint64_t *out,
                std::string *error);

/**
 * Strict REMAP_TRACE_PERIOD-value parser: parseCount() of a cycle
 * count ("0" turns counter sampling off).
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

/** REMAP_JOBS, or 0 when unset; malformed values are fatal
 *  (parseCount()). */
std::uint64_t jobs();

/**
 * Strict parser for a directory (or file base path) held by the
 * variable @p name: unset leaves @p dir empty (off), a nonempty value
 * is the path, and
 * the empty string fails with a one-line @p error naming the
 * variable, so a value meant to turn an output on never silently
 * leaves it off.
 */
bool parseDirectory(const char *name, const char *text, std::string *dir,
                    std::string *error);

/** REMAP_MANIFEST, or "" when unset; an empty value is fatal
 *  (parseDirectory()). */
std::string manifestDir();

/** REMAP_TRACE, or "" when unset; an empty value is fatal
 *  (parseDirectory()). */
std::string traceFile();

/**
 * The names of the REMAP_* entries of @p envp (a null-terminated
 * "NAME=value" array, such as environ) that are not in the list
 * above, in @p envp order. A variable this build does not read is a
 * stale or misspelt one, and its user should be told.
 */
std::vector<std::string> unknownVariables(char **envp);

} // namespace remap::env

#endif // REMAP_SIM_ENV_HH
