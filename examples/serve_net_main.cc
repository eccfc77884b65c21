// TCP serving driver: the socket front-end over a live corpus.
//
// Loads a saved corpus (or builds a random one, saving it when --corpus
// names a directory), starts the NetServer, prints the bound
// address, and serves the framed wire protocol of docs/PROTOCOL.md until
// stdin reaches EOF or the process receives SIGINT/SIGTERM. Pair it with
// any client linking src/net/client.h — bench_net is the reference driver.
//
//   # serve a random 2 Mb DNA corpus on an ephemeral port
//   serve_net_main --random-text=2000000
//
//   # serve a previously saved corpus on a fixed port
//   serve_net_main --corpus=/tmp/corpus --port=7411
//
// Exits non-zero on any setup failure.

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include <cerrno>
#include <unistd.h>

#include "src/net/server.h"
#include "src/obs/metrics.h"
#include "src/service/service.h"
#include "src/sim/generator.h"

namespace {

using namespace alae;  // NOLINT: example brevity

struct Flags {
  std::string corpus;      // saved corpus directory (optional)
  std::string host = "127.0.0.1";
  int port = 0;            // 0 = ephemeral, printed after bind
  int64_t random_text = 0; // build a random corpus of this many chars
  int64_t shard_size = 1 << 20;
  int64_t overlap = 4096;
  int threads = 0;         // scheduler pool; 0 = hardware concurrency
  uint64_t seed = 42;
  int metrics_dump_sec = 0;  // dump the registry every N sec (0 = off)
  double trace_sample = 0.0; // scheduler trace sampling rate
  int64_t slow_query_ms = 0; // slow-query log threshold (0 = off)

  static Flags Parse(int argc, char** argv) {
    Flags f;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value_of = [&](const char* name, std::string* out) {
        const std::string prefix = std::string("--") + name + "=";
        if (arg.rfind(prefix, 0) != 0) return false;
        *out = arg.substr(prefix.size());
        return true;
      };
      std::string value;
      if (value_of("corpus", &f.corpus) || value_of("host", &f.host)) {
        continue;
      } else if (value_of("port", &value)) {
        f.port = std::atoi(value.c_str());
      } else if (value_of("random-text", &value)) {
        f.random_text = std::atoll(value.c_str());
      } else if (value_of("shard-size", &value)) {
        f.shard_size = std::atoll(value.c_str());
      } else if (value_of("overlap", &value)) {
        f.overlap = std::atoll(value.c_str());
      } else if (value_of("threads", &value)) {
        f.threads = std::atoi(value.c_str());
      } else if (value_of("seed", &value)) {
        f.seed = std::strtoull(value.c_str(), nullptr, 10);
      } else if (value_of("metrics-dump-sec", &value)) {
        f.metrics_dump_sec = std::atoi(value.c_str());
      } else if (value_of("trace-sample", &value)) {
        f.trace_sample = std::atof(value.c_str());
      } else if (value_of("slow-query-ms", &value)) {
        f.slow_query_ms = std::atoll(value.c_str());
      } else {
        std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
        std::exit(2);
      }
    }
    return f;
  }
};

volatile std::sig_atomic_t g_stop = 0;
void OnSignal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);

  service::LiveCorpusOptions live_options;
  live_options.base.shard_size = flags.shard_size;
  live_options.base.overlap = flags.overlap;

  // Corpus: load the directory if it holds a manifest, else build a random
  // one and save it there — serve_main's handling, so each driver serves
  // the other's saves.
  std::unique_ptr<service::LiveCorpus> corpus;
  if (!flags.corpus.empty() &&
      std::filesystem::exists(flags.corpus + "/corpus.manifest")) {
    auto loaded = service::LiveCorpus::Load(flags.corpus, live_options);
    if (!loaded.ok()) {
      std::fprintf(stderr, "load %s: %s\n", flags.corpus.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    corpus = std::move(loaded).value();
  } else {
    if (!flags.corpus.empty() && flags.random_text <= 0) {
      std::fprintf(stderr,
                   "%s has no corpus.manifest; pass --random-text=N to build "
                   "one\n",
                   flags.corpus.c_str());
      return 1;
    }
    const int64_t n = flags.random_text > 0 ? flags.random_text : 1 << 20;
    std::fprintf(stderr, "building random %lld-char DNA corpus...\n",
                 static_cast<long long>(n));
    Sequence text =
        SequenceGenerator(flags.seed).Random(n, Alphabet::Dna());
    auto built = service::LiveCorpus::Build(std::move(text), live_options);
    if (!built.ok()) {
      std::fprintf(stderr, "build: %s\n", built.status().ToString().c_str());
      return 1;
    }
    corpus = std::move(built).value();
    if (!flags.corpus.empty()) {
      if (api::Status saved = corpus->Save(flags.corpus); !saved.ok()) {
        std::fprintf(stderr, "save: %s\n", saved.ToString().c_str());
        return 1;
      }
      std::fprintf(stderr, "saved corpus to %s\n", flags.corpus.c_str());
    }
  }

  service::SchedulerOptions sched_options;
  sched_options.threads = flags.threads;
  sched_options.trace_sample_rate = flags.trace_sample;
  sched_options.slow_query_ms = flags.slow_query_ms;
  sched_options.slow_query_sink = [](const std::string& rendered) {
    std::fprintf(stderr, "slow query:\n%s", rendered.c_str());
  };
  service::QueryScheduler scheduler(*corpus, sched_options);

  net::NetServerOptions net_options;
  net_options.host = flags.host;
  net_options.port = flags.port;
  net::NetServer server(&scheduler, net_options);
  if (api::Status started = server.Start(); !started.ok()) {
    std::fprintf(stderr, "start: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("serving %zu shards (%lld chars) on %s:%d\n",
              corpus->base()->num_shards() + corpus->num_deltas(),
              static_cast<long long>(corpus->text_size()), flags.host.c_str(),
              server.port());
  std::fflush(stdout);

  // Periodic metrics dump (--metrics-dump-sec): the same registry a client
  // scrapes over the wire with a STATS_REQUEST frame.
  std::atomic<bool> dump_stop{false};
  std::thread dumper;
  if (flags.metrics_dump_sec > 0) {
    dumper = std::thread([&] {
      while (!dump_stop.load()) {
        for (int i = 0; i < flags.metrics_dump_sec * 10 && !dump_stop.load();
             ++i) {
          std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
        if (dump_stop.load()) break;
        std::fprintf(stderr, "---- metrics ----\n%s",
                     scheduler.registry().Expose().c_str());
      }
    });
  }

  // sigaction without SA_RESTART: the park below must be *interrupted* by
  // SIGINT/SIGTERM — std::signal's glibc semantics restart the blocking
  // read, which would leave the handler's g_stop unobserved forever.
  struct sigaction sa {};
  sa.sa_handler = OnSignal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  // Park until stdin closes or a signal lands; the event loop and the
  // scheduler pool do all the serving.
  char buf[256];
  while (!g_stop) {
    ssize_t n = ::read(STDIN_FILENO, buf, sizeof(buf));
    if (n == 0) break;                   // stdin EOF
    if (n < 0 && errno != EINTR) break;  // EINTR re-checks g_stop
  }

  dump_stop.store(true);
  if (dumper.joinable()) dumper.join();
  // Stop the server BEFORE reading the counters: the event loop is joined
  // and every started request has completed, so the summary is the final
  // word rather than a snapshot racing requests still in flight.
  server.Stop();
  std::fprintf(stderr,
               "shut down: %llu conns, %llu requests (%llu cancelled, "
               "%llu protocol errors)\n",
               static_cast<unsigned long long>(server.connections_accepted()),
               static_cast<unsigned long long>(server.requests_completed()),
               static_cast<unsigned long long>(server.requests_cancelled()),
               static_cast<unsigned long long>(server.protocol_errors()));
  if (flags.metrics_dump_sec > 0) {
    std::fprintf(stderr, "---- metrics (final) ----\n%s",
                 scheduler.registry().Expose().c_str());
  }
  scheduler.Shutdown();
  return 0;
}
