// End-to-end benchmark program. One process runs one workload:
//
//   perfbench --workload <records_crowd|certify_2m|serve_mixed>
//             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// The seed only shapes the generated inputs (record tables and crowd
// answers, the 2M-pair realization, the readers' draws); the library's own
// settings are fixed. Human-readable figures go to stdout first; the last stdout line
// is the result JSON. A failed output check exits 1.

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "report.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "<records_crowd|certify_2m|serve_mixed> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return Usage();
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(options.seconds > 0.0)) {
        return Usage();
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage();
      }
      options.trace = value[0] == '1';
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1) return Usage();
  if (mkdir(options.out_dir.c_str(), 0755) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "perfbench: cannot create %s\n",
                 options.out_dir.c_str());
    return 2;
  }

  perfbench::SpanRecorder recorder(options.trace, options.seed);
  perfbench::Outcome outcome;
  if (options.workload == "records_crowd") {
    perfbench::RunRecordsCrowd(options, &recorder, &outcome);
  } else if (options.workload == "certify_2m") {
    perfbench::RunCertify2m(options, &recorder, &outcome);
  } else if (options.workload == "serve_mixed") {
    perfbench::RunServeMixed(options, &recorder, &outcome);
  } else {
    return Usage();
  }

  if (options.trace) {
    const std::string path = options.out_dir + "/trace-" + options.workload +
                             "-seed" + std::to_string(options.seed) + ".json";
    if (!recorder.WriteChromeTrace(path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
    outcome.notes.push_back("trace written to " + path);
  }
  return perfbench::PrintResult(options, outcome);
}
