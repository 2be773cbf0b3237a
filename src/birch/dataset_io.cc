#include "birch/dataset_io.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <filesystem>

namespace birch {

bool ParseCsvNumericRow(const std::string& line, std::vector<double>* out) {
  out->clear();
  auto is_separator = [](char c) {
    return c == ',' || c == ' ' || c == '\t' || c == '\r';
  };
  const char* p = line.c_str();
  const char* const end = p + line.size();
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
      // out-of-range values, NaN payloads. In place on the NUL-terminated
      // line it gives the verdict and bits it gives on the field alone:
      // no number holds a separator or '#'.
      char* parsed = nullptr;
      v = std::strtod(p, &parsed);
      if (parsed != field_end) return false;
    }
    out->push_back(v);
    p = field_end;
  }
  return true;
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
    : path_(std::move(path)), in_(path_) {}

StatusOr<std::unique_ptr<CsvPointSource>> CsvPointSource::Open(
    const std::string& path) {
  auto source = std::unique_ptr<CsvPointSource>(new CsvPointSource(path));
  if (!source->in_) return Status::IOError("cannot open " + path);
  // A pipe, socket or terminal reads once: no Rewind().
  std::error_code ec;
  const auto type = std::filesystem::status(path, ec).type();
  source->seekable_ = type != std::filesystem::file_type::fifo &&
                      type != std::filesystem::file_type::socket &&
                      type != std::filesystem::file_type::character;
  // The first data row fixes the dimensionality; the first Next()
  // returns it, so reading the file once never seeks.
  if (!source->NextRow()) {
    BIRCH_RETURN_IF_ERROR(source->status_);
    return Status::InvalidArgument("no data rows in " + path);
  }
  source->dim_ = source->row_.size();
  source->row_pending_ = true;
  return source;
}

bool CsvPointSource::NextRow() {
  if (!status_.ok()) return false;
  while (std::getline(in_, line_)) {
    ++line_no_;
    if (!ParseCsvNumericRow(line_, &row_)) {
      if (!saw_data_) continue;  // header row
      status_ = Status::InvalidArgument("unparsable row at line " +
                                        std::to_string(line_no_));
      return false;
    }
    if (row_.empty()) continue;  // blank / comment-only line
    if (dim_ != 0 && row_.size() != dim_) {
      status_ = Status::InvalidArgument(
          "row arity changed at line " + std::to_string(line_no_) + " (" +
          std::to_string(row_.size()) + " vs " + std::to_string(dim_) + ")");
      return false;
    }
    saw_data_ = true;
    return true;
  }
  if (in_.bad()) status_ = Status::IOError("read failed for " + path_);
  return false;
}

bool CsvPointSource::Next(std::span<double> out, double* weight) {
  if (!row_pending_ && !NextRow()) return false;
  row_pending_ = false;
  std::copy(row_.begin(), row_.end(), out.begin());
  *weight = 1.0;
  return true;
}

Status CsvPointSource::Rewind() {
  if (!seekable_) {
    return Status::FailedPrecondition(
        path_ + " is a pipe, socket or device: it cannot be re-read");
  }
  in_.clear();
  in_.seekg(0);
  if (!in_) return Status::IOError("rewind failed for " + path_);
  line_no_ = 0;
  saw_data_ = false;
  row_pending_ = false;
  status_ = Status::OK();
  return Status::OK();
}

}  // namespace birch
