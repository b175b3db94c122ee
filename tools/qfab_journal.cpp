// Sweep checkpoint-journal inspection and repair CLI.
//
//   tools/qfab_journal results/fig1_1to1_1q.journal
//       print the journal's header status, config fingerprint, record
//       counts by type, and whether a damaged tail was dropped.
//   tools/qfab_journal results/fig1_1to1_1q.journal --records
//       additionally list every record's (depth_index, instance block).
//   tools/qfab_journal results/fig1_1to1_1q.journal --repair
//       rewrite the file to its valid prefix (atomic tmp+fsync+rename),
//       reporting how many record frames the damaged tail stranded
//       instead of silently truncating.
//
// Exit codes: 0 = readable (possibly after --repair), 1 = journal
// missing/unrecognizable, 2 = usage error.
//
// See DESIGN.md §10 for the journal format.
#include <cstdio>
#include <iostream>
#include <string>

#include "exp/journal.h"

namespace {

int usage() {
  std::cerr << "usage: qfab_journal <journal> [--records] [--repair]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace qfab;

  std::string path;
  bool repair = false;
  bool records = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--repair") repair = true;
    else if (arg == "--records") records = true;
    else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "unknown flag " << arg << '\n';
      return usage();
    } else if (path.empty()) {
      path = arg;
    } else {
      return usage();
    }
  }
  if (path.empty()) return usage();

  const JournalContents contents = read_journal(path);
  if (!contents.header_ok) {
    std::cout << path << ": not a readable sweep journal";
    if (!contents.note.empty()) std::cout << " (" << contents.note << ")";
    std::cout << '\n';
    return 1;
  }

  std::size_t poisoned = 0;
  for (const JournalRecord& rec : contents.records)
    poisoned += rec.type == JournalRecord::Type::kPoisoned;

  char fp[32];
  std::snprintf(fp, sizeof fp, "%016llx",
                static_cast<unsigned long long>(contents.fingerprint));
  std::cout << path << ":\n"
            << "  fingerprint  " << fp << '\n'
            << "  records      " << contents.records.size() << " ("
            << contents.records.size() - poisoned << " unit, " << poisoned
            << " poisoned)\n"
            << "  valid bytes  " << contents.valid_bytes << '\n';
  if (contents.dropped_tail)
    std::cout << "  DAMAGED TAIL dropped: " << contents.note << '\n';

  if (records) {
    for (const JournalRecord& rec : contents.records) {
      const char* kind =
          rec.type == JournalRecord::Type::kPoisoned ? "poisoned" : "unit";
      std::cout << "  " << kind << " depth_index=" << rec.depth_index
                << " instances=[" << rec.block_begin << ',' << rec.block_end
                << ')';
      if (!rec.error.empty()) std::cout << "  error: " << rec.error;
      std::cout << '\n';
    }
  }

  if (repair) {
    if (contents.dropped_tail) {
      rewrite_journal(path, contents);
      std::cout << "  repaired: rewrote the valid prefix ("
                << contents.records.size() << " record(s) kept); dropped "
                << contents.dropped_frames << " stranded record frame(s)"
                << (contents.dropped_partial_frame
                        ? " plus a torn partial frame"
                        : "")
                << " in " << contents.dropped_bytes << " byte(s)\n";
    } else {
      std::cout << "  repair not needed\n";
    }
  } else if (contents.dropped_tail) {
    std::cout << "  (run with --repair to rewrite the valid prefix; "
                 "--resume does this automatically)\n";
  }
  return 0;
}
