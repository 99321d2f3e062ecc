/**
 * @file
 * Writer of the replay-jsonl corpus: the `misam serve` input format
 * (serve/jobfile.hh) for a batch of generated jobs.
 *
 * Each job's A goes to its own Matrix Market file; each tenant's shared
 * B goes to one file that every job of that tenant names. Values are
 * written with max_digits10 significant digits, so loadServeJob reads
 * back matrices equal (==) to the generated ones — the library's own
 * writeMatrixMarket keeps the stream's default six digits and would not
 * round-trip.
 */

#ifndef PERFBENCH_CORPUS_HH
#define PERFBENCH_CORPUS_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "serve/jobfile.hh"
#include "workloads.hh"

namespace perfbench {

/** Matrix Market coordinate text of `m` with round-trip precision. */
void writeMatrixMarketExact(std::ostream &out, const misam::CsrMatrix &m);

/** One JSONL job line (no trailing newline). */
std::string jobLine(const std::string &name, const std::string &a_path,
                    const std::string &b_path, double repetitions);

/**
 * Write the corpus of `jobs` under directory `dir` (created if missing)
 * and return the JSONL path. Jobs of one tenant must share B. Paths
 * inside the JSONL are `dir`-prefixed, so they resolve from the same
 * working directory `dir` does.
 */
std::string writeCorpus(const std::string &dir,
                        const std::vector<StagedJob> &jobs);

/** Bytes of the files a spec names (A, plus B when it is a file). */
std::uint64_t specFileBytes(const misam::ServeJobSpec &spec);

} // namespace perfbench

#endif // PERFBENCH_CORPUS_HH
