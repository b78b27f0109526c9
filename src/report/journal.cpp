#include "src/report/journal.hpp"

#include "src/support/error.hpp"

namespace automap {

Journal::Journal() : out_(&buffer_) {
  event("journal").integer("version", kJournalVersion);
}

Journal::Journal(const std::string& path)
    : path_(path), file_(path, std::ios::trunc), out_(&file_) {
  AM_REQUIRE(file_.good(), "cannot open journal for writing: " + path);
  event("journal").integer("version", kJournalVersion);
}

Journal::Event::Event(Journal* journal, std::string_view type)
    : journal_(journal) {
  begin_object().integer("n", journal_->next_sequence_++).str("type", type);
  if (journal_->rotation_ >= 0) integer("rot", journal_->rotation_);
  if (journal_->position_ >= 0)
    integer("pos", journal_->position_).integer("task", journal_->task_);
}

Journal::Event::~Event() { *journal_->out_ << end_object().take() << '\n'; }

Journal::Event Journal::event(std::string_view type) {
  return Event(this, type);
}

void Journal::set_rotation(int rotation) { rotation_ = rotation; }

void Journal::set_coordinate(int position, int task) {
  position_ = position;
  task_ = task;
}

void Journal::clear_coordinate() {
  position_ = -1;
  task_ = -1;
}

void Journal::clear_cursor() {
  rotation_ = -1;
  clear_coordinate();
}

std::string Journal::text() const {
  AM_REQUIRE(path_.empty(), "text() is only available on in-memory journals");
  return buffer_.str();
}

void Journal::flush() { out_->flush(); }

}  // namespace automap
