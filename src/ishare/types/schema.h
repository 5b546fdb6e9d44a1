#ifndef ISHARE_TYPES_SCHEMA_H_
#define ISHARE_TYPES_SCHEMA_H_

#include <string>
#include <vector>

#include "ishare/common/status.h"
#include "ishare/types/value.h"

namespace ishare {

// One column of a schema.
struct Field {
  std::string name;
  DataType type;

  friend bool operator==(const Field& a, const Field& b) {
    return a.name == b.name && a.type == b.type;
  }
};

// An ordered list of named, typed columns. Operators produce rows whose
// i-th value conforms to field(i).
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Field> fields) : fields_(std::move(fields)) {}

  int num_fields() const { return static_cast<int>(fields_.size()); }
  const Field& field(int i) const {
    CHECK(i >= 0 && i < num_fields());
    return fields_[i];
  }
  const std::vector<Field>& fields() const { return fields_; }

  // Index of the column with the given name, or -1 if absent.
  int IndexOf(const std::string& name) const;

  // Index of the column with the given name; CHECK-fails if absent.
  int IndexOfOrDie(const std::string& name) const;

  // Concatenation of two schemas (e.g. join output = left ++ right).
  static Schema Concat(const Schema& a, const Schema& b);

  std::string ToString() const;

  friend bool operator==(const Schema& a, const Schema& b) {
    return a.fields_ == b.fields_;
  }

 private:
  std::vector<Field> fields_;
};

}  // namespace ishare

#endif  // ISHARE_TYPES_SCHEMA_H_
