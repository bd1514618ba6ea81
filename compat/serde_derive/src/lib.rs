//! `#[derive(Serialize, Deserialize)]` for the workspace's vendored serde
//! stand-in.
//!
//! The offline build environment has neither `syn` nor `quote`, so the
//! item is parsed directly from the `proc_macro` token stream and the
//! impls are emitted as source text. The supported shape is exactly what
//! this workspace declares: non-generic structs (named, tuple, unit) and
//! non-generic enums whose variants are unit, tuple, or struct-like.
//!
//! `Serialize` writes compact JSON text directly (field keys are literal
//! pushes); `Deserialize` reads the `serde::Value` tree. Both use one
//! shape:
//! - named struct  → object of fields
//! - tuple struct, one field → the inner value (newtype transparency)
//! - tuple struct, n fields → array
//! - unit struct → null
//! - enum: unit variant → `"Variant"`; tuple/struct variant →
//!   single-entry object `{ "Variant": payload }`
//!
//! A named field missing from the input is an error, except that (as
//! upstream) an `Option<T>` field decodes as `None`, a field marked
//! `#[serde(default)]` as `Default::default()`, and one marked
//! `#[serde(default = "path")]` as `path()`. That is how fields added to
//! a format after it shipped stay readable from older input.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// What a named field decodes to when its key is missing.
enum Missing {
    /// A decode error.
    Error,
    /// `None` (the field is an `Option<T>`).
    None,
    /// `Default::default()` (`#[serde(default)]`).
    Default,
    /// A call of the named function (`#[serde(default = "path")]`).
    Call(String),
}

/// One named field.
struct Field {
    name: String,
    missing: Missing,
}

/// Field shape of a struct or enum variant.
enum Fields {
    Unit,
    Tuple(usize),
    Named(Vec<Field>),
}

/// Parsed item shape.
enum Item {
    Struct {
        name: String,
        fields: Fields,
    },
    Enum {
        name: String,
        variants: Vec<(String, Fields)>,
    },
}

/// Skip one attribute (`#` + bracket group) if present at `i`.
fn skip_attrs(toks: &[TokenTree], i: &mut usize) {
    while *i < toks.len() {
        match &toks[*i] {
            TokenTree::Punct(p) if p.as_char() == '#' => *i += 2,
            _ => break,
        }
    }
}

/// Skip a visibility qualifier (`pub`, `pub(crate)`, …) if present.
fn skip_vis(toks: &[TokenTree], i: &mut usize) {
    if let Some(TokenTree::Ident(id)) = toks.get(*i) {
        if id.to_string() == "pub" {
            *i += 1;
            if let Some(TokenTree::Group(g)) = toks.get(*i) {
                if g.delimiter() == Delimiter::Parenthesis {
                    *i += 1;
                }
            }
        }
    }
}

/// Advance past a type (or expression) to the next top-level comma,
/// consuming the comma. Only `<`/`>` need depth tracking — parenthesized
/// and bracketed subtrees arrive as single `Group` tokens.
fn skip_to_next_field(toks: &[TokenTree], i: &mut usize) {
    let mut angle = 0i64;
    while *i < toks.len() {
        match &toks[*i] {
            TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => {
                *i += 1;
                return;
            }
            _ => {}
        }
        *i += 1;
    }
}

/// The `#[serde(default)]` / `#[serde(default = "path")]` marker in the
/// attributes starting at `i`, skipping past them all.
fn field_default(toks: &[TokenTree], i: &mut usize) -> Option<Missing> {
    let mut found = None;
    while let Some(TokenTree::Punct(p)) = toks.get(*i) {
        if p.as_char() != '#' {
            break;
        }
        if let Some(TokenTree::Group(g)) = toks.get(*i + 1) {
            let attr: Vec<TokenTree> = g.stream().into_iter().collect();
            if let [TokenTree::Ident(id), TokenTree::Group(args)] = &attr[..] {
                if id.to_string() == "serde" {
                    found = Some(parse_serde_args(args.stream()));
                }
            }
        }
        *i += 2;
    }
    found
}

/// Read the arguments of one `#[serde(...)]` field attribute.
fn parse_serde_args(stream: TokenStream) -> Missing {
    let args: Vec<TokenTree> = stream.into_iter().collect();
    match &args[..] {
        [TokenTree::Ident(id)] if id.to_string() == "default" => Missing::Default,
        [TokenTree::Ident(id), TokenTree::Punct(eq), TokenTree::Literal(path)]
            if id.to_string() == "default" && eq.as_char() == '=' =>
        {
            let path = path.to_string();
            Missing::Call(path.trim_matches('"').to_string())
        }
        _ => {
            let args: TokenStream = args.into_iter().collect();
            panic!("serde_derive: unsupported field attribute serde({args})")
        }
    }
}

/// Whether the type tokens starting at `i` name `Option<..>` (bare or
/// by path).
fn is_option(toks: &[TokenTree], i: usize) -> bool {
    let mut last_ident = None;
    for t in &toks[i..] {
        match t {
            TokenTree::Ident(id) => last_ident = Some(id.to_string()),
            TokenTree::Punct(p) if p.as_char() == ':' => {}
            TokenTree::Punct(p) if p.as_char() == '<' => {
                return last_ident.as_deref() == Some("Option")
            }
            _ => return false,
        }
    }
    false
}

/// Parse `{ field: Type, ... }` into its fields.
fn parse_named(stream: TokenStream) -> Vec<Field> {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let default = field_default(&toks, &mut i);
        skip_vis(&toks, &mut i);
        if i >= toks.len() {
            break;
        }
        let name = match &toks[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("serde_derive: expected field name, got {other}"),
        };
        i += 1; // name
        i += 1; // ':'
        let missing = match default {
            Some(d) => d,
            None if is_option(&toks, i) => Missing::None,
            None => Missing::Error,
        };
        skip_to_next_field(&toks, &mut i);
        fields.push(Field { name, missing });
    }
    fields
}

/// Count the fields of `( Type, ... )`.
fn count_tuple(stream: TokenStream) -> usize {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    let mut count = 0;
    let mut i = 0;
    while i < toks.len() {
        skip_attrs(&toks, &mut i);
        skip_vis(&toks, &mut i);
        if i >= toks.len() {
            break;
        }
        skip_to_next_field(&toks, &mut i);
        count += 1;
    }
    count
}

/// Parse `enum { Variant, Variant(T), Variant { .. }, ... }` bodies.
fn parse_variants(stream: TokenStream) -> Vec<(String, Fields)> {
    let toks: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        skip_attrs(&toks, &mut i);
        if i >= toks.len() {
            break;
        }
        let name = match &toks[i] {
            TokenTree::Ident(id) => id.to_string(),
            other => panic!("serde_derive: expected variant name, got {other}"),
        };
        i += 1;
        let fields = match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                Fields::Tuple(count_tuple(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                Fields::Named(parse_named(g.stream()))
            }
            _ => Fields::Unit,
        };
        // Skip a possible discriminant, then the separating comma.
        while i < toks.len() {
            if let TokenTree::Punct(p) = &toks[i] {
                if p.as_char() == ',' {
                    i += 1;
                    break;
                }
            }
            i += 1;
        }
        variants.push((name, fields));
    }
    variants
}

/// Parse the derive input into an [`Item`].
fn parse_item(input: TokenStream) -> Item {
    let toks: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    let kind = loop {
        skip_attrs(&toks, &mut i);
        skip_vis(&toks, &mut i);
        match &toks[i] {
            TokenTree::Ident(id) => {
                let s = id.to_string();
                if s == "struct" || s == "enum" {
                    i += 1;
                    break s;
                }
                i += 1; // e.g. `pub` already handled; tolerate others
            }
            _ => i += 1,
        }
    };
    let name = match &toks[i] {
        TokenTree::Ident(id) => id.to_string(),
        other => panic!("serde_derive: expected item name, got {other}"),
    };
    i += 1;
    if let Some(TokenTree::Punct(p)) = toks.get(i) {
        if p.as_char() == '<' {
            panic!("serde_derive: generic types are not supported by the offline stand-in");
        }
    }
    if kind == "struct" {
        let fields = match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Fields::Named(parse_named(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Fields::Tuple(count_tuple(g.stream()))
            }
            _ => Fields::Unit,
        };
        Item::Struct { name, fields }
    } else {
        let variants = match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                parse_variants(g.stream())
            }
            other => panic!("serde_derive: malformed enum body: {other:?}"),
        };
        Item::Enum { name, variants }
    }
}

/// Source appending the literal JSON text `text` to the output buffer.
/// `text` is built from identifiers and JSON punctuation, so its `"`
/// quotes are the only characters the string literal must escape.
/// Generated code names the buffer `__out`, so no field binding can
/// shadow it.
fn push(text: &str) -> String {
    format!("__out.push_str(\"{}\");", text.replace('"', "\\\""))
}

/// Source writing `{"a":<a>,"b":<b>}`, where field `f` is read from the
/// expression `access(f)`.
fn write_object(fields: &[Field], access: impl Fn(&str) -> String) -> String {
    if fields.is_empty() {
        return push("{}");
    }
    let mut s = String::new();
    for (i, f) in fields.iter().enumerate() {
        let sep = if i == 0 { "{" } else { "," };
        s.push_str(&push(&format!("{sep}\"{}\":", f.name)));
        s.push_str(&format!(
            "::serde::Serialize::write_json({}, __out);",
            access(&f.name)
        ));
    }
    s.push_str("__out.push('}');");
    s
}

/// Source writing `[<e0>,<e1>,…]` from the given element expressions.
fn write_array(elems: &[String]) -> String {
    let mut s = String::from("__out.push('[');");
    for (i, e) in elems.iter().enumerate() {
        if i > 0 {
            s.push_str("__out.push(',');");
        }
        s.push_str(&format!("::serde::Serialize::write_json({e}, __out);"));
    }
    s.push_str("__out.push(']');");
    s
}

/// Emit the `Serialize` impl for `item`: compact JSON written straight
/// into the output, every field key a literal push.
fn gen_serialize(item: &Item) -> String {
    let (name, body) = match item {
        Item::Struct { name, fields } => {
            let body = match fields {
                Fields::Named(fields) => write_object(fields, |f| format!("&self.{f}")),
                Fields::Tuple(1) => "::serde::Serialize::write_json(&self.0, __out);".to_string(),
                Fields::Tuple(n) => {
                    write_array(&(0..*n).map(|k| format!("&self.{k}")).collect::<Vec<_>>())
                }
                Fields::Unit => push("null"),
            };
            (name, body)
        }
        Item::Enum { name, variants } => {
            let mut body = String::from("match self { ");
            for (v, fields) in variants {
                match fields {
                    Fields::Unit => {
                        body.push_str(&format!("{name}::{v} => {{ {} }}", push(&format!("\"{v}\""))));
                    }
                    Fields::Tuple(1) => body.push_str(&format!(
                        "{name}::{v}(__f0) => {{ {} ::serde::Serialize::write_json(__f0, __out); __out.push('}}'); }}",
                        push(&format!("{{\"{v}\":"))
                    )),
                    Fields::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|k| format!("__f{k}")).collect();
                        body.push_str(&format!(
                            "{name}::{v}({}) => {{ {} {} __out.push('}}'); }}",
                            binds.join(","),
                            push(&format!("{{\"{v}\":")),
                            write_array(&binds)
                        ));
                    }
                    Fields::Named(fields) => {
                        let binds: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                        body.push_str(&format!(
                            "{name}::{v} {{ {} }} => {{ {} {} __out.push('}}'); }}",
                            binds.join(","),
                            push(&format!("{{\"{v}\":")),
                            write_object(fields, str::to_string)
                        ));
                    }
                }
            }
            body.push_str(" }");
            (name, body)
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{ \
         fn write_json(&self, __out: &mut ::std::string::String) {{ {body} }} }}"
    )
}

/// Emit a named-field constructor body reading from value `src`.
fn gen_named_build(ty_path: &str, fields: &[Field], src: &str) -> String {
    let mut s = format!("{ty_path} {{ ");
    for Field { name: f, missing } in fields {
        let absent = match missing {
            Missing::Error => format!(
                "return ::std::result::Result::Err(::serde::DeError::msg(\
                 \"missing field {ty_path}.{f}\"))"
            ),
            Missing::None => "::std::option::Option::None".to_string(),
            Missing::Default => "::std::default::Default::default()".to_string(),
            Missing::Call(path) => format!("{path}()"),
        };
        s.push_str(&format!(
            "{f}: match {src}.field(\"{f}\") {{ \
             Some(__v) => ::serde::Deserialize::from_value(__v)?, \
             None => {absent} }},"
        ));
    }
    s.push_str(" }");
    s
}

/// Emit the `Deserialize` impl for `item`.
fn gen_deserialize(item: &Item) -> String {
    let mut s = String::new();
    match item {
        Item::Struct { name, fields } => {
            s.push_str(&format!(
                "impl ::serde::Deserialize for {name} {{ \
                 fn from_value(__v: &::serde::Value) -> ::std::result::Result<Self, ::serde::DeError> {{ "
            ));
            match fields {
                Fields::Named(fields) => {
                    s.push_str(&format!(
                        "::std::result::Result::Ok({})",
                        gen_named_build(name, fields, "__v")
                    ));
                }
                Fields::Tuple(1) => s.push_str(&format!(
                    "::std::result::Result::Ok({name}(::serde::Deserialize::from_value(__v)?))"
                )),
                Fields::Tuple(n) => {
                    s.push_str(&format!(
                        "let __a = match __v.as_array() {{ Some(a) => a, None => return \
                         ::std::result::Result::Err(::serde::DeError::msg(\"expected array for {name}\")) }}; \
                         if __a.len() != {n} {{ return ::std::result::Result::Err(\
                         ::serde::DeError::msg(\"wrong arity for {name}\")); }} \
                         ::std::result::Result::Ok({name}("
                    ));
                    for idx in 0..*n {
                        s.push_str(&format!("::serde::Deserialize::from_value(&__a[{idx}])?,"));
                    }
                    s.push_str("))");
                }
                Fields::Unit => s.push_str(&format!("::std::result::Result::Ok({name})")),
            }
            s.push_str(" } }");
        }
        Item::Enum { name, variants } => {
            s.push_str(&format!(
                "impl ::serde::Deserialize for {name} {{ \
                 fn from_value(__v: &::serde::Value) -> ::std::result::Result<Self, ::serde::DeError> {{ \
                 match __v {{ "
            ));
            // Unit variants arrive as bare strings.
            s.push_str("::serde::Value::Str(__s) => match __s.as_str() { ");
            for (v, fields) in variants {
                if matches!(fields, Fields::Unit) {
                    s.push_str(&format!(
                        "\"{v}\" => ::std::result::Result::Ok({name}::{v}),"
                    ));
                }
            }
            s.push_str(&format!(
                "__other => ::std::result::Result::Err(::serde::DeError::msg(\
                 ::std::format!(\"unknown unit variant {{__other}} for {name}\"))) }},"
            ));
            // Payload variants arrive as single-entry objects.
            s.push_str(
                "::serde::Value::Object(__fields) if __fields.len() == 1 => { \
                 let (__tag, __inner) = &__fields[0]; match __tag.as_str() { ",
            );
            for (v, fields) in variants {
                match fields {
                    Fields::Unit => {}
                    Fields::Tuple(1) => s.push_str(&format!(
                        "\"{v}\" => ::std::result::Result::Ok({name}::{v}(\
                         ::serde::Deserialize::from_value(__inner)?)),"
                    )),
                    Fields::Tuple(n) => {
                        s.push_str(&format!(
                            "\"{v}\" => {{ let __a = match __inner.as_array() {{ Some(a) => a, \
                             None => return ::std::result::Result::Err(::serde::DeError::msg(\
                             \"expected array payload for {name}::{v}\")) }}; \
                             if __a.len() != {n} {{ return ::std::result::Result::Err(\
                             ::serde::DeError::msg(\"wrong arity for {name}::{v}\")); }} \
                             ::std::result::Result::Ok({name}::{v}("
                        ));
                        for idx in 0..*n {
                            s.push_str(&format!("::serde::Deserialize::from_value(&__a[{idx}])?,"));
                        }
                        s.push_str(")) },");
                    }
                    Fields::Named(fields) => {
                        s.push_str(&format!(
                            "\"{v}\" => ::std::result::Result::Ok({}),",
                            gen_named_build(&format!("{name}::{v}"), fields, "__inner")
                        ));
                    }
                }
            }
            s.push_str(&format!(
                "__other => ::std::result::Result::Err(::serde::DeError::msg(\
                 ::std::format!(\"unknown variant {{__other}} for {name}\"))) }} }},"
            ));
            s.push_str(&format!(
                "__other => ::std::result::Result::Err(::serde::DeError::msg(\
                 ::std::format!(\"bad enum encoding for {name}: {{__other:?}}\"))) }} }} }}"
            ));
        }
    }
    s
}

/// Derive `serde::Serialize` (compact JSON text; see crate docs).
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_serialize(&item)
        .parse()
        .expect("serde_derive: generated Serialize impl parses")
}

/// Derive `serde::Deserialize` (from the value tree; see crate docs).
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let item = parse_item(input);
    gen_deserialize(&item)
        .parse()
        .expect("serde_derive: generated Deserialize impl parses")
}
