/// \file holix_cli.cpp
/// \brief Interactive REPL over the Holix wire protocol: connect to a
/// running holix_server, open a session, and issue queries line by line.
///
///   holix_cli [--host 127.0.0.1] [--port N]
///
/// Commands (one per line; EOF or `quit` exits):
///   count  <table> <column> <low> <high>
///   sum    <table> <column> <low> <high>
///   psum   <table> <where_col> <project_col> <low> <high>
///   select <table> <column> <low> <high>
///   insert <table> <column> <value>
///   delete <table> <column> <value>
///   query  <table> <col> <lo> <hi> [and <col> <lo> <hi>]...
///          [count] [sum <col>] [psum <col>] [rowids]
///   stats
///   help
///
/// `stats` fetches the server's live telemetry snapshot (protocol-v4
/// GetStats) and prints the human-readable one-pager: every holix_*
/// counter/gauge/histogram plus the recent-query trace ring.
///
/// `query` is the general form: a conjunction of range predicates (each
/// one cracks its own index server-side) answered with any mix of count /
/// per-column sums / rowids in one round trip; with no result keyword it
/// defaults to `count`. `count`, `sum`, `select` and `psum` are its
/// one-predicate, one-result spellings; every query verb sends one
/// ExecuteQuery frame.
///
/// Bounds and values are typed: a token that parses as a plain integer is
/// sent as an int64 scalar, anything else ("2.5", "1e9", "inf", "nan") as
/// a double scalar. Sums over double columns print as doubles.

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "obs/metrics.h"
#include "server/client.h"

namespace {

using holix::KeyScalar;

/// Parses a numeric token into a typed scalar: plain integers become i64
/// carriers, everything else (fractions, exponents, inf, nan) doubles.
bool ParseScalar(const std::string& tok, KeyScalar* out) {
  if (tok.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long long i = std::strtoll(tok.c_str(), &end, 10);
  if (errno == 0 && end != nullptr && *end == '\0') {
    *out = KeyScalar::I64(i);
    return true;
  }
  errno = 0;
  const double d = std::strtod(tok.c_str(), &end);
  if (end == tok.c_str() || *end != '\0') return false;
  *out = KeyScalar::F64(d);
  return true;
}

void PrintScalar(const KeyScalar& s) {
  if (s.is_f64()) {
    std::printf("%.17g\n", s.d);
  } else {
    std::printf("%lld\n", static_cast<long long>(s.i));
  }
}

void PrintHelp() {
  std::printf(
      "commands:\n"
      "  count  <table> <column> <low> <high>   select count(*)\n"
      "  sum    <table> <column> <low> <high>   select sum(column)\n"
      "  psum   <table> <where> <proj> <low> <high>  projected sum\n"
      "  select <table> <column> <low> <high>   qualifying rowids\n"
      "  insert <table> <column> <value>\n"
      "  delete <table> <column> <value>\n"
      "  query  <table> <col> <lo> <hi> [and <col> <lo> <hi>]...\n"
      "         [count] [sum <col>] [psum <col>] [rowids]\n"
      "         multi-predicate conjunction (default result: count)\n"
      "  stats                                  server telemetry snapshot\n"
      "  help | quit\n");
}

/// Prints "<n> rowids" followed by the first eight rowids.
void PrintRowIds(const std::vector<uint64_t>& rowids) {
  std::printf("%zu rowids", rowids.size());
  for (size_t i = 0; i < rowids.size() && i < 8; ++i) {
    std::printf(" %llu", static_cast<unsigned long long>(rowids[i]));
  }
  std::printf(rowids.size() > 8 ? " ...\n" : "\n");
}

/// Parses the tail of a one-predicate verb into its wire predicate and
/// result: count / sum / select take `<column> <low> <high>`, psum takes
/// `<where> <proj> <low> <high>`.
bool ParseVerbCommand(const std::string& cmd, std::istringstream& in,
                      std::vector<holix::net::QueryPredicateWire>* preds,
                      std::vector<holix::net::QueryResultSpecWire>* results) {
  holix::net::QueryPredicateWire p;
  std::string proj, lo_tok, hi_tok;
  if (!(in >> p.column) || (cmd == "psum" && !(in >> proj)) ||
      !(in >> lo_tok >> hi_tok) || !ParseScalar(lo_tok, &p.low) ||
      !ParseScalar(hi_tok, &p.high)) {
    return false;
  }
  if (cmd == "count") {
    results->push_back({0, ""});
  } else if (cmd == "sum") {
    results->push_back({1, p.column});
  } else if (cmd == "select") {
    results->push_back({2, ""});
  } else {
    results->push_back({3, proj});
  }
  preds->push_back(std::move(p));
  return true;
}

/// Parses the `query` command tail into wire predicates + result specs.
/// Grammar: triples of <col> <lo> <hi> (optionally separated by "and")
/// until a result keyword; then any mix of count / sum <col> /
/// psum <col> / rowids.
bool ParseQueryCommand(std::istringstream& in,
                       std::vector<holix::net::QueryPredicateWire>* preds,
                       std::vector<holix::net::QueryResultSpecWire>* results) {
  std::string tok;
  bool in_results = false;
  while (in >> tok) {
    if (tok == "and") continue;
    if (tok == "count") {
      in_results = true;
      results->push_back({0, ""});
    } else if (tok == "sum" || tok == "psum") {
      in_results = true;
      std::string col;
      if (!(in >> col)) return false;
      results->push_back({static_cast<uint8_t>(tok == "sum" ? 1 : 3), col});
    } else if (tok == "rowids") {
      in_results = true;
      results->push_back({2, ""});
    } else {
      if (in_results) return false;  // predicate after a result keyword
      holix::net::QueryPredicateWire p;
      p.column = tok;
      std::string lo_tok, hi_tok;
      if (!(in >> lo_tok >> hi_tok) || !ParseScalar(lo_tok, &p.low) ||
          !ParseScalar(hi_tok, &p.high)) {
        return false;
      }
      preds->push_back(std::move(p));
    }
  }
  if (preds->empty()) return false;
  if (results->empty()) results->push_back({0, ""});  // default: count
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--host") {
      host = next();
    } else if (arg == "--port") {
      port = static_cast<uint16_t>(std::atoi(next()));
    } else {
      std::fprintf(stderr, "usage: holix_cli [--host H] [--port N]\n");
      return arg == "--help" ? 0 : 2;
    }
  }
  if (port == 0) {
    std::fprintf(stderr, "holix_cli: --port is required\n");
    return 2;
  }

  holix::net::HolixClient client;
  try {
    client.Connect(host, port);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "holix_cli: %s\n", e.what());
    return 1;
  }
  const uint64_t session = client.OpenSession();
  std::printf("connected to %s:%u (session %llu)\n", host.c_str(), port,
              static_cast<unsigned long long>(session));

  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    if (!(in >> cmd) || cmd.empty() || cmd[0] == '#') continue;
    try {
      if (cmd == "quit" || cmd == "exit") {
        break;
      } else if (cmd == "help") {
        PrintHelp();
      } else if (cmd == "stats") {
        std::printf("%s", holix::obs::HumanText(client.GetStats()).c_str());
      } else if (cmd == "count" || cmd == "sum" || cmd == "select" ||
                 cmd == "psum" || cmd == "query") {
        std::string table;
        std::vector<holix::net::QueryPredicateWire> preds;
        std::vector<holix::net::QueryResultSpecWire> results;
        const bool ok = (in >> table) &&
                        (cmd == "query"
                             ? ParseQueryCommand(in, &preds, &results)
                             : ParseVerbCommand(cmd, in, &preds, &results));
        if (!ok) {
          if (cmd == "query") {
            std::printf(
                "usage: query <table> <col> <lo> <hi> [and <col> <lo> <hi>]..."
                " [count] [sum <col>] [psum <col>] [rowids]\n");
          } else if (cmd == "psum") {
            std::printf("usage: psum <table> <where> <proj> <low> <high>\n");
          } else {
            std::printf("usage: %s <table> <column> <low> <high>\n",
                        cmd.c_str());
          }
          continue;
        }
        const auto res = client.ExecuteQuery(session, table, preds, results);
        for (size_t i = 0; i < results.size() && i < res.values.size(); ++i) {
          if (results[i].kind == 2) {
            PrintRowIds(res.rowids);
          } else {
            PrintScalar(res.values[i]);
          }
        }
      } else if (cmd == "insert" || cmd == "delete") {
        std::string table, column, val_tok;
        KeyScalar value;
        if (!(in >> table >> column >> val_tok) ||
            !ParseScalar(val_tok, &value)) {
          std::printf("usage: %s <table> <column> <value>\n", cmd.c_str());
          continue;
        }
        if (cmd == "insert") {
          std::printf("rowid %llu\n",
                      static_cast<unsigned long long>(
                          client.Insert(session, table, column, value)));
        } else {
          std::printf("%s\n",
                      client.Delete(session, table, column, value)
                          ? "deleted"
                          : "not found");
        }
      } else {
        std::printf("unknown command '%s' (try `help`)\n", cmd.c_str());
      }
    } catch (const std::exception& e) {
      std::printf("error: %s\n", e.what());
      if (!client.connected()) return 1;
    }
  }
  if (client.connected()) client.CloseSession(session);
  return 0;
}
