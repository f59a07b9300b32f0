// Shared helpers of the pbtool subcommands (pbtool.cc, trace.cc).
#ifndef PERFBENCH_PBTOOL_H_
#define PERFBENCH_PBTOOL_H_

#include <map>
#include <string>
#include <utility>
#include <vector>

namespace pb {

// Feature count of every generated request (run.py's FEATURES).
constexpr int kFeatures = 4;

// "--key value" pairs after the subcommand.
class Args {
 public:
  Args(int argc, char** argv, int first);
  std::string Str(const std::string& key);  // required
  double Num(const std::string& key, double fallback);

 private:
  std::map<std::string, std::string> values_;
};

[[noreturn]] void Usage(const std::string& message);

// Nearest-rank percentile, q in (0, 1]; 0 for an empty sample.
double Percentile(std::vector<double> values, double q);

// One flat JSON object of named numbers, in the given order.
std::string JsonObject(const std::vector<std::pair<std::string, double>>& kv);

int TraceSweep(Args& args);
int TraceServe(Args& args);

}  // namespace pb

#endif  // PERFBENCH_PBTOOL_H_
