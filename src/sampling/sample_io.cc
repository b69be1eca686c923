#include "sampling/sample_io.h"

#include <sys/stat.h>

#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/failpoint.h"
#include "storage/io.h"

namespace aqpp {

namespace {

constexpr char kMetaMagic[8] = {'A', 'Q', 'P', 'P', 'S', 'M', 'P', '1'};

template <typename T>
void WritePod(std::ofstream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
bool ReadPod(std::ifstream& in, T* v) {
  in.read(reinterpret_cast<char*>(v), sizeof(T));
  return in.good();
}

template <typename T>
void WriteVector(std::ofstream& out, const std::vector<T>& v) {
  WritePod<uint64_t>(out, v.size());
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(T)));
}

// `file_size` bounds the element count so a corrupt length field fails
// cleanly instead of driving a huge resize.
template <typename T>
bool ReadVector(std::ifstream& in, std::vector<T>* v, uint64_t file_size) {
  uint64_t size = 0;
  if (!ReadPod(in, &size)) return false;
  if (size > file_size / sizeof(T)) return false;
  v->resize(size);
  in.read(reinterpret_cast<char*>(v->data()),
          static_cast<std::streamsize>(size * sizeof(T)));
  return in.good() || size == 0;
}

uint64_t FileSizeOf(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                        : 0;
}

}  // namespace

Status SaveSample(const Sample& sample, const std::string& path_prefix) {
  if (sample.rows == nullptr) {
    return Status::InvalidArgument("sample has no rows");
  }
  AQPP_RETURN_NOT_OK(WriteBinary(*sample.rows, path_prefix + ".rows"));
  AQPP_FAILPOINT_RETURN_STATUS("storage/io/write");
  // Same write-to-temp-then-rename protocol as WriteBinary: the .meta file is
  // either the old complete version or the new complete version, never torn.
  const std::string meta_path = path_prefix + ".meta";
  const std::string tmp_path = meta_path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::binary);
    if (!out) {
      return Status::IOError("cannot open '" + tmp_path + "'");
    }
    out.write(kMetaMagic, sizeof(kMetaMagic));
    WritePod<int32_t>(out, static_cast<int32_t>(sample.method));
    WritePod<uint64_t>(out, sample.population_size);
    WritePod<double>(out, sample.sampling_fraction);
    WriteVector(out, sample.weights);
    WriteVector(out, sample.strata);
    WritePod<uint64_t>(out, sample.stratum_info.size());
    for (const auto& info : sample.stratum_info) {
      WritePod<uint64_t>(out, info.population_rows);
      WritePod<uint64_t>(out, info.sample_rows);
    }
    out.flush();
    if (!out) {
      std::remove(tmp_path.c_str());
      return Status::IOError("write failed for sample metadata");
    }
  }
  if (std::rename(tmp_path.c_str(), meta_path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::IOError("rename failed for '" + meta_path + "'");
  }
  return Status::OK();
}

Result<Sample> LoadSample(const std::string& path_prefix) {
  Sample sample;
  AQPP_ASSIGN_OR_RETURN(sample.rows, ReadBinary(path_prefix + ".rows"));
  AQPP_FAILPOINT_RETURN_STATUS("storage/io/read");
  const uint64_t meta_size = FileSizeOf(path_prefix + ".meta");
  std::ifstream in(path_prefix + ".meta", std::ios::binary);
  if (!in) return Status::IOError("cannot open '" + path_prefix + ".meta'");
  char magic[8];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMetaMagic, sizeof(magic)) != 0) {
    return Status::InvalidArgument("'" + path_prefix +
                                   ".meta' is not a sample metadata file");
  }
  int32_t method = 0;
  uint64_t population = 0;
  if (!ReadPod(in, &method) || !ReadPod(in, &population) ||
      !ReadPod(in, &sample.sampling_fraction)) {
    return Status::IOError("truncated sample metadata");
  }
  sample.method = static_cast<SamplingMethod>(method);
  sample.population_size = population;
  if (!ReadVector(in, &sample.weights, meta_size) ||
      !ReadVector(in, &sample.strata, meta_size)) {
    return Status::IOError("truncated sample metadata");
  }
  uint64_t num_strata = 0;
  if (!ReadPod(in, &num_strata) || num_strata > meta_size / 16) {
    return Status::IOError("truncated sample metadata");
  }
  sample.stratum_info.resize(num_strata);
  for (auto& info : sample.stratum_info) {
    uint64_t pop = 0, rows = 0;
    if (!ReadPod(in, &pop) || !ReadPod(in, &rows)) {
      return Status::IOError("truncated stratum info");
    }
    info.population_rows = pop;
    info.sample_rows = rows;
  }
  if (sample.weights.size() != sample.rows->num_rows()) {
    return Status::InvalidArgument("weights/rows size mismatch");
  }
  AQPP_RETURN_NOT_OK(ValidateStrata(sample));
  return sample;
}

}  // namespace aqpp
