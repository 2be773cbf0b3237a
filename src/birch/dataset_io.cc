#include "birch/dataset_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string_view>

namespace birch {

namespace {

/// Appends the fields of the line [p, end) to `out`; false at the first
/// field that is not a number. `*end` must be a byte no number holds
/// (the line's '\n', or the NUL after a string's last byte), so strtod
/// in place stops at or before it.
bool ParseFields(const char* p, const char* const end,
                 std::vector<double>* out) {
  auto is_separator = [](char c) {
    return c == ',' || c == ' ' || c == '\t' || c == '\r';
  };
  while (p != end && *p != '#') {  // '#' starts the comment tail
    if (is_separator(*p)) {
      ++p;
      continue;
    }
    const char* const field_end = std::find_if(
        p, end, [&](char c) { return c == '#' || is_separator(c); });
    double v = 0.0;
    const auto [stop, ec] = std::from_chars(p, field_end, v);
    if (ec != std::errc() || stop != field_end || std::isnan(v)) {
      // strtod reads what from_chars does not: hex, a leading '+',
      // out-of-range values, NaN payloads. In place it gives the
      // verdict and bits it gives on the field alone: no number holds
      // a separator, '#', '\n' or NUL.
      char* parsed = nullptr;
      v = std::strtod(p, &parsed);
      if (parsed != field_end) return false;
    }
    out->push_back(v);
    p = field_end;
  }
  return true;
}

/// The end of the line that starts at `p`: its '\n', or `end`.
const char* LineEnd(const char* p, const char* end) {
  const void* nl = std::memchr(p, '\n', static_cast<size_t>(end - p));
  return nl != nullptr ? static_cast<const char*>(nl) : end;
}

}  // namespace

bool ParseCsvNumericRow(const std::string& line, std::vector<double>* out) {
  out->clear();
  return ParseFields(line.data(), line.data() + line.size(), out);
}

StatusOr<Dataset> ReadCsvPoints(const std::string& path) {
  auto source_or = CsvPointSource::Open(path);
  if (!source_or.ok()) return source_or.status();
  CsvPointSource& source = *source_or.value();
  Dataset data(source.dim());
  std::vector<double> row(source.dim());
  double weight = 1.0;
  while (source.Next(row, &weight)) data.Append(row);
  BIRCH_RETURN_IF_ERROR(source.status());
  return data;
}

CsvPointSource::CsvPointSource(std::string path)
    : path_(std::move(path)), fd_(::open(path_.c_str(), O_RDONLY)) {}

CsvPointSource::~CsvPointSource() {
  if (fd_ >= 0) ::close(fd_);
}

StatusOr<std::unique_ptr<CsvPointSource>> CsvPointSource::Open(
    const std::string& path) {
  auto source = std::unique_ptr<CsvPointSource>(new CsvPointSource(path));
  if (source->fd_ < 0) return Status::IOError("cannot open " + path);
  // A pipe, socket or terminal reads once: no Rewind().
  struct stat st {};
  if (::fstat(source->fd_, &st) == 0) {
    source->seekable_ = !S_ISFIFO(st.st_mode) && !S_ISSOCK(st.st_mode) &&
                        !S_ISCHR(st.st_mode);
  }
  // Headers may only come before the first data row, which fixes the
  // dimensionality. The stream, and every Rewind(), starts at that row,
  // so no later block has a header to skip and reading the file once
  // never seeks.
  PointBlock block;
  std::vector<double> row;
  for (uint64_t at = 0; source->ReadBlock(&block);
       at += block.text.size()) {
    const char* const begin = block.text.data();
    const char* const end = begin + block.text.size();
    uint64_t line = block.first_line;
    for (const char* p = begin; p != end; ++line) {
      const char* const eol = LineEnd(p, end);
      row.clear();
      if (ParseFields(p, eol, &row) && !row.empty()) {
        source->dim_ = row.size();
        source->data_offset_ = at + static_cast<uint64_t>(p - begin);
        source->data_line_ = line;
        source->carry_.insert(0, p, static_cast<size_t>(end - p));
        source->lines_ = line - 1;
        return source;
      }
      p = eol == end ? end : eol + 1;
    }
  }
  BIRCH_RETURN_IF_ERROR(source->status_);
  return Status::InvalidArgument("no data rows in " + path);
}

bool CsvPointSource::ReadBlock(PointBlock* block) {
  if (!status_.ok()) return false;
  std::string& text = block->text;
  text.assign(carry_);
  carry_.clear();
  block->first_line = lines_ + 1;
  // Whole lines already held (after Open()) go out without a read; else
  // read until a newline arrives. One read takes what a pipe holds, so
  // a slow writer's lines go out as they come.
  size_t cut = text.rfind('\n');
  while (cut == std::string::npos && !eof_) {
    const size_t old = text.size();
    text.resize(old + kBlockBytes);
    ssize_t got = 0;
    do {
      got = ::read(fd_, text.data() + old, kBlockBytes);
    } while (got < 0 && errno == EINTR);
    if (got < 0) {
      text.clear();
      status_ = Status::IOError("read failed for " + path_);
      return false;
    }
    text.resize(old + static_cast<size_t>(got));
    eof_ = got == 0;
    cut = std::string_view(text).substr(old).rfind('\n');
    if (cut != std::string::npos) cut += old;
  }
  if (cut != std::string::npos) {
    carry_.assign(text, cut + 1);
    text.resize(cut + 1);
  } else if (text.empty()) {
    return false;  // end of the file
  }
  // The file's last line may end without a newline.
  lines_ += static_cast<uint64_t>(std::count(text.begin(), text.end(), '\n'));
  if (text.back() != '\n') ++lines_;
  return true;
}

Status CsvPointSource::DecodeBlock(PointBlock* block) const {
  block->values.clear();
  block->weights.clear();
  const char* p = block->text.data();
  const char* const end = p + block->text.size();
  for (uint64_t line = block->first_line; p != end; ++line) {
    const char* const eol = LineEnd(p, end);
    const size_t before = block->values.size();
    const bool parsed = ParseFields(p, eol, &block->values);
    const size_t fields = block->values.size() - before;
    if (!parsed) {
      block->values.resize(before);
      return Status::InvalidArgument("unparsable row at line " +
                                     std::to_string(line));
    }
    if (fields != 0 && fields != dim_) {
      block->values.resize(before);
      return Status::InvalidArgument(
          "row arity changed at line " + std::to_string(line) + " (" +
          std::to_string(fields) + " vs " + std::to_string(dim_) + ")");
    }
    if (fields != 0) block->weights.push_back(1.0);  // else blank/comment
    p = eol == end ? end : eol + 1;
  }
  return Status::OK();
}

bool CsvPointSource::Next(std::span<double> out, double* weight) {
  while (pos_ == current_.size()) {
    if (!status_.ok() || !ReadBlock(&current_)) return false;
    pos_ = 0;
    // A bad line stops the stream once the rows before it are served.
    status_ = DecodeBlock(&current_);
  }
  std::copy_n(current_.values.begin() + static_cast<ptrdiff_t>(pos_ * dim_),
              dim_, out.begin());
  *weight = current_.weights[pos_++];
  return true;
}

Status CsvPointSource::Rewind() {
  if (!seekable_) {
    return Status::FailedPrecondition(
        path_ + " is a pipe, socket or device: it cannot be re-read");
  }
  if (::lseek(fd_, static_cast<off_t>(data_offset_), SEEK_SET) < 0) {
    return Status::IOError("rewind failed for " + path_);
  }
  carry_.clear();
  lines_ = data_line_ - 1;
  eof_ = false;
  current_.values.clear();
  current_.weights.clear();
  pos_ = 0;
  status_ = Status::OK();
  return Status::OK();
}

}  // namespace birch
