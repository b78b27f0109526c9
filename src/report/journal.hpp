#pragma once

// Structured, append-only search provenance journal (§ISSUE 5; schema in
// docs/file_formats.md). The search stack emits one JSONL record per
// decision-relevant event — candidate evaluated/censored/quarantined,
// coordinate move accepted/rejected with its makespan delta, constraint
// edges established and pruned per rotation, checkpoints, incumbent
// improvements, metric snapshots — each stamped with the simulated search
// clock and the current rotation/coordinate cursor.
//
// Ordering contract: a search runs on one thread, and every emission site
// sits in Evaluator::evaluate's fold or the algorithm's own control flow.
// Events therefore carry a single monotone sequence number with no locking,
// and a journal is byte-identical with pruning on or off (the same
// guarantee the SearchResult already has). A null Journal* in
// SearchOptions disables everything: emission sites are `if (journal_)`
// guards on the fold side, which is noise against a simulator run.

#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include "src/support/json.hpp"

namespace automap {

/// Current schema version, written in the header record and bumped on any
/// incompatible change (see docs/file_formats.md "Versioning policy").
/// Version 2 replaced `search_begin`'s flat option fields with canonical
/// "options"/"sim" objects (search_options_to_json); readers accept both.
inline constexpr int kJournalVersion = 2;

class Journal {
 public:
  /// In-memory journal (tests, byte-identity comparisons); read back with
  /// text().
  Journal();
  /// File-backed journal. Throws Error when the path cannot be opened.
  explicit Journal(const std::string& path);

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// One pending JSONL record: a writer whose object already holds the
  /// record's "n", "type" and cursor members. Its destructor closes the
  /// object and appends it and a newline. Keys must be unique per event,
  /// and members are written in call order — byte-identity depends on it.
  class Event : public JsonWriter {
   public:
    ~Event();
    Event(const Event&) = delete;
    Event& operator=(const Event&) = delete;

   private:
    friend class Journal;
    Event(Journal* journal, std::string_view type);

    Journal* journal_;
  };

  /// Starts a record of the given type, stamped with the next sequence
  /// number and the current rotation/coordinate cursor.
  Event event(std::string_view type);

  /// Cursor state auto-attached to subsequent events as "rot"/"pos"/"task".
  void set_rotation(int rotation);
  void set_coordinate(int position, int task);
  void clear_coordinate();
  void clear_cursor();

  /// Serialized contents of an in-memory journal (precondition: default-
  /// constructed, not file-backed).
  [[nodiscard]] std::string text() const;
  /// Path of a file-backed journal; empty for in-memory journals.
  [[nodiscard]] const std::string& path() const { return path_; }

  void flush();

 private:
  std::string path_;
  std::ostringstream buffer_;
  std::ofstream file_;
  std::ostream* out_;
  long long next_sequence_ = 0;
  int rotation_ = -1;
  int position_ = -1;
  int task_ = -1;
};

}  // namespace automap
