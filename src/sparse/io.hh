/**
 * @file
 * Matrix Market (.mtx) coordinate-format I/O.
 *
 * Supports the subset of the format SuiteSparse matrices use: coordinate
 * storage, real/integer/pattern fields, general or symmetric symmetry.
 * Lets users run Misam on real SuiteSparse downloads in place of the
 * synthetic proxies.
 */

#ifndef MISAM_SPARSE_IO_HH
#define MISAM_SPARSE_IO_HH

#include <iosfwd>
#include <string>

#include "sparse/coo.hh"
#include "sparse/csr.hh"

namespace misam {

/**
 * Parse the rest of a Matrix Market stream into COO; fatal() on bad
 * input. Reads the stream to its end, then parses that one buffer. The
 * accepted numbers are exactly those `std::istream >>` reads in the "C"
 * locale (docs/ARCHITECTURE.md, Layer 1).
 */
CooMatrix readMatrixMarket(std::istream &in);

/** Read a Matrix Market file; fatal() if it cannot be opened or parsed. */
CooMatrix readMatrixMarketFile(const std::string &path);

/**
 * Write a matrix as Matrix Market general/real coordinate format, each
 * value in its shortest form that reads back to the same double.
 */
void writeMatrixMarket(std::ostream &out, const CsrMatrix &m);

/** Write to a file; fatal() if the file cannot be created. */
void writeMatrixMarketFile(const std::string &path, const CsrMatrix &m);

} // namespace misam

#endif // MISAM_SPARSE_IO_HH
