// pbtool: the compiled half of the perfbench benchmark (see run.py).
//
//   pbtool gen ...          seeded request-script generator for dmt_serve
//   pbtool openloop ...     open-loop unix-socket client (latency per verb)
//   pbtool trace-sweep ...  traced Table II sweep (per-layer spans)
//   pbtool trace-serve ...  traced in-process ServeEngine run
//
// Every subcommand prints one JSON object (or writes the requested file)
// and exits 0; malformed arguments exit 2, failed checks exit 1.
#include "pbtool.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace pb {

Args::Args(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) Usage("bad argument " + key);
    values_[key.substr(2)] = argv[++i];
  }
}

std::string Args::Str(const std::string& key) {
  const auto it = values_.find(key);
  if (it == values_.end()) Usage("missing --" + key);
  return it->second;
}

double Args::Num(const std::string& key, double fallback) {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const double value = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0' || !std::isfinite(value)) {
    Usage("bad number for --" + key);
  }
  return value;
}

[[noreturn]] void Usage(const std::string& message) {
  std::fprintf(stderr,
               "pbtool: %s\nusage: pbtool gen|openloop|trace-sweep|"
               "trace-serve --flag value ...\n",
               message.c_str());
  std::exit(2);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size(), std::max<std::size_t>(rank, 1)) - 1];
}

std::string JsonObject(const std::vector<std::pair<std::string, double>>& kv) {
  std::string out = "{";
  char buffer[64];
  for (std::size_t i = 0; i < kv.size(); ++i) {
    std::snprintf(buffer, sizeof(buffer), "%.9g", kv[i].second);
    out += (i == 0 ? "\"" : ", \"") + kv[i].first + "\": " + buffer;
  }
  return out + "}";
}

namespace {

// SplitMix64 (Steele, Lea & Flood 2014), kept local so the generated
// inputs depend on the seed alone, never on the library's RNG code.
struct SplitMix {
  std::uint64_t state;
  std::uint64_t Next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  double Gauss() {
    const double u = 1.0 - Uniform();
    return std::sqrt(-2.0 * std::log(u)) * std::cos(2.0 * M_PI * Uniform());
  }
};

// Request script: stream ids drawn Zipf(kSkew) over `keys` ids, a
// kTrainFrac train / score mix, and per stream a separating hyperplane
// that rotates by one full turn every kDriftPeriod of that stream's
// requests, so busy streams keep restructuring their trees while the
// tail keeps creating new streams. The 70/30 mix is the one the workloads
// call for; skew, drift period and noise are chosen, not measured: at
// kSkew 1.1 over 20k keys the 10 busiest streams take 39% of the traffic,
// 300k requests touch ~16k distinct streams, the head stream sees ~15
// drift periods and the 1000th-ranked one ~22 requests.
constexpr double kSkew = 1.1;
constexpr double kTrainFrac = 0.7;
constexpr double kDriftPeriod = 3000;
constexpr double kLabelNoise = 0.05;

int Gen(Args& args) {
  const std::uint64_t seed = static_cast<std::uint64_t>(args.Num("seed", 1));
  const std::size_t requests =
      static_cast<std::size_t>(args.Num("requests", 100000));
  const std::size_t keys = static_cast<std::size_t>(args.Num("keys", 20000));
  const bool stats = args.Num("stats", 1) != 0;
  if (keys == 0) Usage("bad gen sizes");

  std::vector<double> cdf(keys);
  double total = 0.0;
  for (std::size_t k = 0; k < keys; ++k) {
    total += std::pow(static_cast<double>(k + 1), -kSkew);
    cdf[k] = total;
  }
  struct Concept {
    std::vector<double> w0, w1;
    std::uint64_t t = 0;
  };
  std::vector<Concept> concepts(keys);
  SplitMix rng{seed};
  std::FILE* out = std::fopen(args.Str("out").c_str(), "w");
  if (out == nullptr) Usage("cannot write --out");
  std::vector<double> x(static_cast<std::size_t>(kFeatures));
  std::size_t distinct = 0;
  for (std::size_t r = 0; r < requests; ++r) {
    const std::size_t k = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), rng.Uniform() * total) -
        cdf.begin());
    Concept& c = concepts[std::min(k, keys - 1)];
    if (c.w0.empty()) {
      SplitMix own{seed ^ (0xa0761d6478bd642fULL * (k + 1))};
      for (int f = 0; f < kFeatures; ++f) c.w0.push_back(own.Gauss());
      for (int f = 0; f < kFeatures; ++f) c.w1.push_back(own.Gauss());
      ++distinct;
    }
    const double angle = 2.0 * M_PI * static_cast<double>(c.t++) / kDriftPeriod;
    const double ca = std::cos(angle), sa = std::sin(angle);
    double margin = 0.0;
    for (int f = 0; f < kFeatures; ++f) {
      const std::size_t i = static_cast<std::size_t>(f);
      x[i] = std::round(rng.Uniform() * 1e4) / 1e4;
      margin += (ca * c.w0[i] + sa * c.w1[i]) * (x[i] - 0.5);
    }
    int label = margin > 0.0 ? 1 : 0;
    if (rng.Uniform() < kLabelNoise) label = 1 - label;
    const bool train = rng.Uniform() < kTrainFrac;
    std::fprintf(out, "%s u%zu ", train ? "train" : "score", k);
    for (int f = 0; f < kFeatures; ++f) {
      std::fprintf(out, f == 0 ? "%.4f" : ",%.4f",
                   x[static_cast<std::size_t>(f)]);
    }
    if (train) std::fprintf(out, ",%d", label);
    std::fputc('\n', out);
  }
  if (stats) std::fputs("stats\n", out);
  if (std::fclose(out) != 0) Usage("cannot write --out");
  std::printf("%s\n", JsonObject({{"requests", static_cast<double>(requests)},
                                  {"streams", static_cast<double>(distinct)}})
                          .c_str());
  return 0;
}

using Clock = std::chrono::steady_clock;

double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

// Open loop: request i is due at start + i / rate whether or not earlier
// responses arrived. The writer sleeps until ~150 us before the due time
// and spins the rest (a plain sleep_until wakes tens of microseconds late,
// which would dominate p50), stamps the due time, and the reader, polling
// without ever sleeping so its own wake-up is not measured, matches
// responses to requests by order. Latency counts from the due time, so a
// stall also charges the requests queued behind it.
int OpenLoop(Args& args) {
  const std::string socket_path = args.Str("socket");
  const double rate = args.Num("rate", 1000);
  const double seconds = args.Num("seconds", 5);
  std::vector<std::string> lines;
  {
    std::ifstream in(args.Str("script"));
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("train ", 0) == 0 || line.rfind("score ", 0) == 0) {
        lines.push_back(line + '\n');
      }
    }
  }
  const std::size_t n = static_cast<std::size_t>(rate * seconds);
  if (rate <= 0 || n == 0 || n > lines.size()) Usage("script too short");
  lines.resize(n);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (fd < 0 || socket_path.size() >= sizeof(addr.sun_path)) {
    Usage("bad socket");
  }
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                socket_path.c_str());
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(20);
  while (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
         0) {
    if (Clock::now() > give_up) {
      std::fprintf(stderr, "pbtool: cannot connect to %s\n",
                   socket_path.c_str());
      return 1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / rate));
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  std::vector<Clock::time_point> received(n);
  std::vector<bool> ok(n, false);
  std::size_t responses = 0;
  std::thread reader([&]() {
    std::string buffer;
    char chunk[65536];
    while (responses < n) {
      const ssize_t got = ::recv(fd, chunk, sizeof(chunk), MSG_DONTWAIT);
      if (got < 0 && (errno == EINTR || errno == EAGAIN)) continue;
      if (got <= 0) break;
      const Clock::time_point now = Clock::now();
      buffer.append(chunk, static_cast<std::size_t>(got));
      std::size_t begin = 0;
      for (std::size_t nl = buffer.find('\n'); nl != std::string::npos;
           nl = buffer.find('\n', begin)) {
        if (responses < n) {
          received[responses] = now;
          ok[responses] = buffer.compare(begin, 3, "OK ") == 0;
          ++responses;
        }
        begin = nl + 1;
      }
      buffer.erase(0, begin);
    }
  });

  std::vector<double> lag_us(n);
  const auto spin = std::chrono::microseconds(150);
  for (std::size_t i = 0; i < n; ++i) {
    const Clock::time_point due =
        start + interval * static_cast<Clock::rep>(i);
    std::this_thread::sleep_until(due - spin);
    Clock::time_point now = Clock::now();
    while (now < due) now = Clock::now();
    lag_us[i] = Micros(now - due);
    const std::string& line = lines[i];
    std::size_t sent = 0;
    while (sent < line.size()) {
      const ssize_t w = ::send(fd, line.data() + sent, line.size() - sent,
                               MSG_NOSIGNAL);
      if (w < 0 && errno == EINTR) continue;
      if (w <= 0) break;
      sent += static_cast<std::size_t>(w);
    }
  }
  // End of requests: the server serves the tail, then closes its side.
  ::shutdown(fd, SHUT_WR);
  reader.join();
  ::close(fd);

  std::vector<double> train_us, score_us;
  std::size_t failed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i >= responses || !ok[i]) {
      ++failed;
      continue;
    }
    const double us = Micros(received[i] - (start + interval *
                                            static_cast<Clock::rep>(i)));
    (lines[i][0] == 't' ? train_us : score_us).push_back(us);
  }
  std::printf(
      "%s\n",
      JsonObject({{"attempted", static_cast<double>(n)},
                  {"failed", static_cast<double>(failed)},
                  {"train_n", static_cast<double>(train_us.size())},
                  {"score_n", static_cast<double>(score_us.size())},
                  {"train_p50_us", Percentile(train_us, 0.50)},
                  {"train_p99_us", Percentile(train_us, 0.99)},
                  {"score_p50_us", Percentile(score_us, 0.50)},
                  {"score_p99_us", Percentile(score_us, 0.99)},
                  {"gen_lag_p50_us", Percentile(lag_us, 0.50)},
                  {"gen_lag_p99_us", Percentile(lag_us, 0.99)}})
          .c_str());
  return 0;
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  if (argc < 2) pb::Usage("missing subcommand");
  const std::string command = argv[1];
  pb::Args args(argc, argv, 2);
  if (command == "gen") return pb::Gen(args);
  if (command == "openloop") return pb::OpenLoop(args);
  if (command == "trace-sweep") return pb::TraceSweep(args);
  if (command == "trace-serve") return pb::TraceServe(args);
  pb::Usage("unknown subcommand " + command);
}
