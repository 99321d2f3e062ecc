#include "corpus.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <stdexcept>

namespace perfbench {

void
writeMatrixMarketExact(std::ostream &out, const misam::CsrMatrix &m)
{
    out << "%%MatrixMarket matrix coordinate real general\n";
    out << m.rows() << ' ' << m.cols() << ' ' << m.nnz() << '\n';
    char value[40];
    for (misam::Index r = 0; r < m.rows(); ++r) {
        const auto cols = m.rowCols(r);
        const auto vals = m.rowVals(r);
        for (std::size_t k = 0; k < cols.size(); ++k) {
            std::snprintf(value, sizeof(value), "%.*g",
                          std::numeric_limits<double>::max_digits10,
                          vals[k]);
            out << (r + 1) << ' ' << (cols[k] + 1) << ' ' << value << '\n';
        }
    }
}

std::string
jobLine(const std::string &name, const std::string &a_path,
        const std::string &b_path, double repetitions)
{
    char reps[40];
    std::snprintf(reps, sizeof(reps), "%.*g",
                  std::numeric_limits<double>::max_digits10, repetitions);
    return "{\"name\":\"" + name + "\",\"a\":\"" + a_path + "\",\"b\":\"" +
           b_path + "\",\"repetitions\":" + reps + "}";
}

namespace {

void
writeMatrixFile(const std::string &path, const misam::CsrMatrix &m)
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("corpus: cannot create " + path);
    writeMatrixMarketExact(out, m);
    if (!out.flush())
        throw std::runtime_error("corpus: write failed for " + path);
}

} // namespace

std::string
writeCorpus(const std::string &dir, const std::vector<StagedJob> &jobs)
{
    std::filesystem::create_directories(dir);
    std::map<std::size_t, std::string> tenant_b;
    const std::string jsonl = dir + "/jobs.jsonl";
    std::ofstream lines(jsonl);
    if (!lines)
        throw std::runtime_error("corpus: cannot create " + jsonl);
    for (std::size_t k = 0; k < jobs.size(); ++k) {
        const StagedJob &staged = jobs[k];
        auto [it, fresh] = tenant_b.emplace(
            staged.tenant,
            dir + "/b-tenant" + std::to_string(staged.tenant) + ".mtx");
        if (fresh)
            writeMatrixFile(it->second, staged.job.b);
        const std::string a_path = dir + "/a-" + std::to_string(k) + ".mtx";
        writeMatrixFile(a_path, staged.job.a);
        lines << jobLine(staged.job.name, a_path, it->second,
                         staged.job.repetitions)
              << '\n';
    }
    if (!lines.flush())
        throw std::runtime_error("corpus: write failed for " + jsonl);
    return jsonl;
}

std::uint64_t
specFileBytes(const misam::ServeJobSpec &spec)
{
    std::uint64_t bytes = std::filesystem::file_size(spec.a_path);
    if (!spec.b_path.empty() && spec.b_path != "self")
        bytes += std::filesystem::file_size(spec.b_path);
    return bytes;
}

} // namespace perfbench
